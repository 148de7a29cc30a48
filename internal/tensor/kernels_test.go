package tensor

import (
	"math"
	"sync"
	"testing"
)

// naiveMatMul (the reference triple loop) lives in tensor_test.go.

func randTensor(rng *RNG, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestMatMulVariantsMatchNaive(t *testing.T) {
	rng := NewRNG(11)
	// Mixed shapes: block remainders (not multiples of 4/2), panel
	// boundaries, and tiny edge cases.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {9, 17, 33}, {13, 300, 21}, {64, 64, 64}, {5, 513, 6}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := naiveMatMul(a, b)
		got := MatMul(a, b)
		if d := maxAbsDiff(got.Data, want.Data); d > 1e-10 {
			t.Errorf("MatMul %v: max diff %g", sh, d)
		}
		// Aᵀ·B with A stored transposed.
		at := Transpose2D(a)
		gotTA := MatMulTransA(at, b)
		if d := maxAbsDiff(gotTA.Data, want.Data); d > 1e-10 {
			t.Errorf("MatMulTransA %v: max diff %g", sh, d)
		}
		// A·Bᵀ with B stored transposed.
		bt := Transpose2D(b)
		gotTB := MatMulTransB(a, bt)
		if d := maxAbsDiff(gotTB.Data, want.Data); d > 1e-10 {
			t.Errorf("MatMulTransB %v: max diff %g", sh, d)
		}
	}
}

func TestMatMulIntoReusesDestination(t *testing.T) {
	rng := NewRNG(3)
	a := randTensor(rng, 7, 9)
	b := randTensor(rng, 9, 5)
	dst := New(7, 5)
	fill(dst, 42) // stale contents must be fully overwritten
	MatMulInto(dst, a, b)
	want := naiveMatMul(a, b)
	if d := maxAbsDiff(dst.Data, want.Data); d > 1e-10 {
		t.Fatalf("MatMulInto left stale data: max diff %g", d)
	}
	allocs := testing.AllocsPerRun(10, func() {
		MatMulInto(dst, a, b)
	})
	if allocs > 0 {
		t.Fatalf("MatMulInto allocates %v times per call, want 0", allocs)
	}
}

// TestMatMulBitIdenticalAcrossWorkers pins what the engine's worker pool
// relies on now that the kernels themselves run inline: they keep no
// state between or across calls, so eight goroutines multiplying at once
// — as eight devices' local rounds do — each get the bits a lone call
// gets, for all three variants.
func TestMatMulBitIdenticalAcrossWorkers(t *testing.T) {
	rng := NewRNG(5)
	a := randTensor(rng, 37, 129)
	b := randTensor(rng, 129, 43)
	at, bt := Transpose2D(a), Transpose2D(b)
	variants := []func() *Tensor{
		func() *Tensor { return MatMul(a, b) },
		func() *Tensor { return MatMulTransA(at, b) },
		func() *Tensor { return MatMulTransB(a, bt) },
	}
	for v, mul := range variants {
		serial := mul()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := mul()
				for i := range serial.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(serial.Data[i]) {
						t.Errorf("variant %d: element %d differs between a lone call and one of 8 concurrent ones", v, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestKernelDispatchersMatchScalar(t *testing.T) {
	rng := NewRNG(17)
	for _, n := range []int{1, 3, 4, 7, 8, 15, 16, 33, 100} {
		x := randTensor(rng, n).Data
		y := randTensor(rng, n).Data
		y2 := append([]float64(nil), y...)
		axpy(1.5, x, y)
		scalarAxpy(1.5, x, y2)
		if d := maxAbsDiff(y, y2); d > 1e-12 {
			t.Errorf("axpy n=%d: max diff %g", n, d)
		}
		b := randTensor(rng, n).Data
		rows := make([][]float64, 8)
		for i := 0; i < 4; i++ {
			rows[i] = randTensor(rng, n).Data
			rows[i+4] = append([]float64(nil), rows[i]...)
		}
		axpy4(0.5, -1, 2, 0.25, b, rows[0], rows[1], rows[2], rows[3])
		scalarAxpy4(0.5, -1, 2, 0.25, b, rows[4], rows[5], rows[6], rows[7])
		for i := 0; i < 4; i++ {
			if d := maxAbsDiff(rows[i], rows[i+4]); d > 1e-12 {
				t.Errorf("axpy4 n=%d row %d: max diff %g", n, i, d)
			}
		}
		a0 := randTensor(rng, n).Data
		a1 := randTensor(rng, n).Data
		b0 := randTensor(rng, n).Data
		b1 := randTensor(rng, n).Data
		s00, s01, s10, s11 := dot2x2(a0, a1, b0, b1)
		w00, w01, w10, w11 := scalarDot2x2(a0, a1, b0, b1)
		for _, p := range [][2]float64{{s00, w00}, {s01, w01}, {s10, w10}, {s11, w11}} {
			if math.Abs(p[0]-p[1]) > 1e-10*float64(n) {
				t.Errorf("dot2x2 n=%d: %v vs %v", n, p[0], p[1])
			}
		}
		if s := dotVec(a0, b0); math.Abs(s-scalarDot(a0, b0)) > 1e-10*float64(n) {
			t.Errorf("dotVec n=%d: %v vs %v", n, s, scalarDot(a0, b0))
		}
	}
}

// naive single-sample im2col reference: walks every output tap.
func naiveIm2Col(x []float64, c, h, w, kh, kw, stride, pad int) []float64 {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := make([]float64, c*kh*kw*oh*ow)
	row := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x[ch*h*w+iy*w+ix]
						}
						out[row*oh*ow+oy*ow+ox] = v
					}
				}
				row++
			}
		}
	}
	return out
}

func TestIm2ColStridedMatchesNaive(t *testing.T) {
	rng := NewRNG(23)
	cases := []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 5, 5, 3, 3, 1, 1},
		{2, 7, 6, 3, 3, 1, 0},
		{3, 8, 8, 5, 5, 1, 2},
		{2, 9, 9, 3, 3, 2, 1},
		{1, 4, 4, 4, 4, 1, 3}, // pad > most kx: exercises empty/clipped runs
	}
	for _, tc := range cases {
		x := randTensor(rng, tc.c*tc.h*tc.w).Data
		oh := ConvOut(tc.h, tc.kh, tc.stride, tc.pad)
		ow := ConvOut(tc.w, tc.kw, tc.stride, tc.pad)
		ohw := oh * ow
		ckk := tc.c * tc.kh * tc.kw
		want := naiveIm2Col(x, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)

		got := make([]float64, ckk*ohw)
		Im2Col(x, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, got)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Errorf("Im2Col %+v: max diff %g", tc, d)
		}

		// Strided form: embed as sample 1 of a 3-sample batched matrix.
		rowStride := 3 * ohw
		batched := make([]float64, ckk*rowStride)
		for i := range batched {
			batched[i] = math.NaN() // unwritten cells must stay untouched
		}
		Im2ColStrided(x, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, batched[ohw:], rowStride)
		for r := 0; r < ckk; r++ {
			for j := 0; j < ohw; j++ {
				if batched[r*rowStride+ohw+j] != want[r*ohw+j] {
					t.Fatalf("Im2ColStrided %+v: cell (%d,%d) = %v want %v", tc, r, j, batched[r*rowStride+ohw+j], want[r*ohw+j])
				}
			}
		}
		for r := 0; r < ckk; r++ {
			for j := 0; j < ohw; j++ {
				if !math.IsNaN(batched[r*rowStride+j]) || !math.IsNaN(batched[r*rowStride+2*ohw+j]) {
					t.Fatalf("Im2ColStrided %+v: wrote outside its column block", tc)
				}
			}
		}

		// Col2Im adjoint identity: ⟨Im2Col(x), g⟩ == ⟨x, Col2Im(g)⟩.
		g := randTensor(rng, ckk*ohw).Data
		dx := make([]float64, len(x))
		Col2Im(g, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, dx)
		lhs, rhs := 0.0, 0.0
		for i := range g {
			lhs += want[i] * g[i]
		}
		for i := range x {
			rhs += x[i] * dx[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*math.Abs(lhs) {
			t.Errorf("Col2Im %+v: adjoint identity violated: %v vs %v", tc, lhs, rhs)
		}

		// Strided Col2Im must match the contiguous one.
		gBatched := make([]float64, ckk*rowStride)
		for r := 0; r < ckk; r++ {
			copy(gBatched[r*rowStride+ohw:r*rowStride+2*ohw], g[r*ohw:(r+1)*ohw])
		}
		dx2 := make([]float64, len(x))
		Col2ImStrided(gBatched[ohw:], tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, dx2, rowStride)
		if d := maxAbsDiff(dx, dx2); d != 0 {
			t.Errorf("Col2ImStrided %+v: max diff %g vs contiguous", tc, d)
		}
	}
}

func TestIm2Col1DStridedMatchesContiguous(t *testing.T) {
	rng := NewRNG(29)
	cases := []struct{ c, l, k, stride, pad int }{
		{1, 9, 3, 1, 1}, {2, 16, 5, 1, 2}, {3, 10, 3, 2, 1}, {1, 6, 6, 1, 5},
	}
	for _, tc := range cases {
		x := randTensor(rng, tc.c*tc.l).Data
		ol := ConvOut(tc.l, tc.k, tc.stride, tc.pad)
		ck := tc.c * tc.k
		want := make([]float64, ck*ol)
		Im2Col1D(x, tc.c, tc.l, tc.k, tc.stride, tc.pad, want)
		rowStride := 2 * ol
		batched := make([]float64, ck*rowStride)
		Im2Col1DStrided(x, tc.c, tc.l, tc.k, tc.stride, tc.pad, batched[ol:], rowStride)
		for r := 0; r < ck; r++ {
			for j := 0; j < ol; j++ {
				if batched[r*rowStride+ol+j] != want[r*ol+j] {
					t.Fatalf("Im2Col1DStrided %+v: cell (%d,%d) differs", tc, r, j)
				}
			}
		}
		g := randTensor(rng, ck*ol).Data
		dx := make([]float64, len(x))
		Col2Im1D(g, tc.c, tc.l, tc.k, tc.stride, tc.pad, dx)
		gBatched := make([]float64, ck*rowStride)
		for r := 0; r < ck; r++ {
			copy(gBatched[r*rowStride+ol:r*rowStride+2*ol], g[r*ol:(r+1)*ol])
		}
		dx2 := make([]float64, len(x))
		Col2Im1DStrided(gBatched[ol:], tc.c, tc.l, tc.k, tc.stride, tc.pad, dx2, rowStride)
		if d := maxAbsDiff(dx, dx2); d != 0 {
			t.Errorf("Col2Im1DStrided %+v: max diff %g vs contiguous", tc, d)
		}
	}
}
