package nn

import (
	"fmt"
	"testing"

	"middle/internal/tensor"
)

// convRef is the whole-batch lowering the convolution layers used before
// they went to one sample at a time, kept as their reference: every
// sample lowered into one [CK, N*O] column matrix, one MatMul for the
// batch and a copy back to [N, OutC, O]; backward one MatMulTransB (dW)
// and one MatMulTransA (dX) over the same matrices. The layers must
// reproduce it bit for bit.
type convRef struct {
	w, b     *tensor.Tensor
	ck, o    int // column-matrix rows, output positions per sample
	inSz     int
	lower    func(x, cols []float64, rowStride int)
	scatter  func(cols, dx []float64, rowStride int)
	cols, dy *tensor.Tensor // kept by forward/backward for backward
}

func (r *convRef) forward(x []float64, n int) []float64 {
	outC, stride := r.w.Dim(0), n*r.o
	r.cols = tensor.New(r.ck, stride)
	for i := 0; i < n; i++ {
		r.lower(x[i*r.inSz:(i+1)*r.inSz], r.cols.Data[i*r.o:], stride)
	}
	y := tensor.MatMul(r.w, r.cols)
	out := make([]float64, n*outC*r.o)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for j := 0; j < r.o; j++ {
				out[(i*outC+oc)*r.o+j] = y.Data[oc*stride+i*r.o+j] + r.b.Data[oc]
			}
		}
	}
	return out
}

// backward returns (dW, dB, dX) for the batch forward last lowered.
func (r *convRef) backward(dout []float64, n int) (dw, db, dx []float64) {
	outC, stride := r.w.Dim(0), n*r.o
	dy := tensor.New(outC, stride)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			copy(dy.Data[oc*stride+i*r.o:oc*stride+(i+1)*r.o], dout[(i*outC+oc)*r.o:(i*outC+oc+1)*r.o])
		}
	}
	dw = tensor.MatMulTransB(dy, r.cols).Data
	db = make([]float64, outC)
	for oc := range db {
		for _, v := range dy.Data[oc*stride : (oc+1)*stride] {
			db[oc] += v
		}
	}
	dcols := tensor.MatMulTransA(r.w, dy)
	dx = make([]float64, n*r.inSz)
	for i := 0; i < n; i++ {
		r.scatter(dcols.Data[i*r.o:], dx[i*r.inSz:(i+1)*r.inSz], stride)
	}
	return dw, db, dx
}

// convLayer is what the comparison drives: Conv2D or Conv1D.
type convLayer interface {
	Layer
	backwardParams(dout *tensor.Tensor)
}

// checkConvAgainstRef runs batches of 1, 16, 64 and then 8 samples (the
// ragged last evaluation chunk, served from the front of grown scratch)
// through one layer, in both modes, forward and backward, and through
// the parameters-only backward. The AVX2 axpy kernels fuse the
// multiply-add in whole groups of four columns and finish a row's last
// len mod 4 unfused, so where a sample's output positions are not a
// multiple of four the two lowerings round those columns differently;
// everywhere else, and on the portable kernels, every bit must match.
func checkConvAgainstRef(t *testing.T, name string, c convLayer, r *convRef, inShape []int, rng *tensor.RNG) {
	t.Helper()
	w, b := c.Params()[0], c.Params()[1]
	for _, n := range []int{1, 16, 64, 8} {
		exact := r.o%4 == 0 || n == 1 || !tensor.HasAVX2()
		same := func(what string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s n=%d %s: length %d, want %d", name, n, what, len(got), len(want))
			}
			for i := range got {
				if d := got[i] - want[i]; (exact && d != 0) || d > 1e-12 || d < -1e-12 {
					t.Fatalf("%s n=%d %s: element %d is %v, reference %v (bit-exact required: %v)", name, n, what, i, got[i], want[i], exact)
				}
			}
		}
		x := tensor.New(append([]int{n}, inShape...)...)
		rng.FillNormal(x, 0, 1)
		want := r.forward(x.Data, n)
		same("evaluation forward", c.Forward(x, false).Data, want)
		out := c.Forward(x, true)
		same("training forward", out.Data, want)

		dout := tensor.New(out.Shape()...)
		rng.FillNormal(dout, 0, 1)
		wantDW, wantDB, wantDX := r.backward(dout.Data, n)
		w.ZeroGrad()
		b.ZeroGrad()
		same("dX", c.Backward(dout).Data, wantDX)
		same("dW", w.Grad.Data, wantDW)
		same("dB", b.Grad.Data, wantDB)
		w.ZeroGrad()
		b.ZeroGrad()
		c.backwardParams(dout)
		same("parameters-only dW", w.Grad.Data, wantDW)
		same("parameters-only dB", b.Grad.Data, wantDB)
	}
}

func TestConv2DBatchedMatchesReference(t *testing.T) {
	cases := []struct{ inC, h, w, outC, kh, kw, stride, pad int }{
		{1, 12, 12, 8, 5, 5, 1, 2}, // CNN2's first layer in small
		{11, 8, 8, 4, 5, 5, 1, 2},  // CKK = 275: two panels of the shared dimension
		{3, 8, 8, 5, 3, 3, 1, 1},   // OutC = 5: a row past the 4-row blocks
		{2, 11, 11, 6, 3, 3, 2, 1}, // stride 2
		{2, 9, 8, 5, 3, 3, 1, 0},   // 42 output positions, not a multiple of four
		{1, 28, 28, 2, 5, 5, 1, 2}, // 784 output positions: a sample wider than a column panel
	}
	for _, tc := range cases {
		rng := tensor.NewRNG(7)
		c := NewConv2D(tc.inC, tc.outC, tc.kh, tc.kw, tc.stride, tc.pad, tc.h, tc.w, rng)
		rng.FillNormal(c.B.Value, 0, 1)
		r := &convRef{
			w: c.W.Value, b: c.B.Value, ck: tc.inC * tc.kh * tc.kw, o: c.outH * c.outW, inSz: tc.inC * tc.h * tc.w,
			lower: func(x, cols []float64, rowStride int) {
				tensor.Im2ColStrided(x, tc.inC, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, cols, rowStride)
			},
			scatter: func(cols, dx []float64, rowStride int) {
				tensor.Col2ImStrided(cols, tc.inC, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, dx, rowStride)
			},
		}
		checkConvAgainstRef(t, fmt.Sprintf("Conv2D%+v", tc), c, r, []int{tc.inC, tc.h, tc.w}, rng)
	}
}

func TestConv1DBatchedMatchesReference(t *testing.T) {
	cases := []struct{ inC, l, outC, k, stride, pad int }{
		{2, 35, 3, 4, 1, 0},    // 32 output positions
		{2, 46, 5, 5, 3, 2},    // stride 3, padded, 16 positions
		{1, 64, 4, 8, 2, 0},    // 29 positions, not a multiple of four
		{1, 1600, 2, 32, 8, 0}, // the fast speech profile's first layer
	}
	for _, tc := range cases {
		rng := tensor.NewRNG(13)
		c := NewConv1D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.l, rng)
		rng.FillNormal(c.B.Value, 0, 1)
		r := &convRef{
			w: c.W.Value, b: c.B.Value, ck: tc.inC * tc.k, o: c.outL, inSz: tc.inC * tc.l,
			lower: func(x, cols []float64, rowStride int) {
				tensor.Im2Col1DStrided(x, tc.inC, tc.l, tc.k, tc.stride, tc.pad, cols, rowStride)
			},
			scatter: func(cols, dx []float64, rowStride int) {
				tensor.Col2Im1DStrided(cols, tc.inC, tc.l, tc.k, tc.stride, tc.pad, dx, rowStride)
			},
		}
		checkConvAgainstRef(t, fmt.Sprintf("Conv1D%+v", tc), c, r, []int{tc.inC, tc.l}, rng)
	}
}

// TestNetworkVectorRoundTripNoAlloc pins the cached-params fast path:
// after the first call, flattening into a provided buffer is free.
func TestNetworkVectorRoundTripNoAlloc(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewMLP(MLPConfig{In: 12, Classes: 3, Hidden: []int{8}}, rng)
	v := net.ParamVector()
	buf := make([]float64, net.NumParams())
	if a := testing.AllocsPerRun(10, func() { net.ParamVectorInto(buf) }); a > 0 {
		t.Fatalf("ParamVectorInto allocates %v/run", a)
	}
	if !sameBits(buf, v) {
		t.Fatal("ParamVectorInto differs from ParamVector")
	}
	if a := testing.AllocsPerRun(10, func() { net.SetParamVector(buf) }); a > 0 {
		t.Fatalf("SetParamVector allocates %v/run", a)
	}
	if a := testing.AllocsPerRun(10, func() { net.ZeroGrad() }); a > 0 {
		t.Fatalf("ZeroGrad allocates %v/run", a)
	}
	if a := testing.AllocsPerRun(10, func() { net.GradVectorInto(buf) }); a > 0 {
		t.Fatalf("GradVectorInto allocates %v/run", a)
	}
}
