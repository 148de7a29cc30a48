package nn

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

// TestLayersDoNotWriteTheirInput pins the rule layer.go states: a layer
// reads the tensors it is handed and writes only its own buffers. ReLU
// relies on it — its Backward reads the output its Forward returned,
// which by then is the next layer's input — and so does every layer that
// keeps a reference to its input (Linear) or returns a view of it
// (Flatten).
func TestLayersDoNotWriteTheirInput(t *testing.T) {
	rng := tensor.NewRNG(5)
	layers := []struct {
		name  string
		layer Layer
		in    []int
	}{
		{"conv2d", NewConv2D(2, 3, 3, 3, 1, 1, 6, 6, rng), []int{3, 2, 6, 6}},
		{"conv2d-stride2", NewConv2D(2, 3, 3, 3, 2, 0, 7, 7, rng), []int{3, 2, 7, 7}},
		{"conv1d", NewConv1D(2, 3, 4, 2, 1, 12, rng), []int{3, 2, 12}},
		{"linear", NewLinear(10, 4, rng), []int{3, 10}},
		{"relu", NewReLU(), []int{3, 37}},
		{"flatten", NewFlatten(), []int{3, 2, 5}},
		{"maxpool2d", NewMaxPool2D(2), []int{2, 3, 8, 10}},
		{"maxpool2d-k3", NewMaxPool2D(3), []int{2, 3, 9, 6}},
		{"maxpool1d", NewMaxPool1D(2), []int{2, 3, 10}},
	}
	for _, l := range layers {
		x := tensor.New(l.in...)
		rng.FillNormal(x, 0, 1)
		xWas := x.Clone()

		out := l.layer.Forward(x, true)
		if !sameBits(x.Data, xWas.Data) {
			t.Errorf("%s: training Forward wrote its input", l.name)
		}
		dy := tensor.New(out.Shape()...)
		rng.FillNormal(dy, 0, 1)
		dyWas := dy.Clone()
		l.layer.Backward(dy)
		if !sameBits(dy.Data, dyWas.Data) {
			t.Errorf("%s: Backward wrote the gradient it was handed", l.name)
		}
		if !sameBits(x.Data, xWas.Data) {
			t.Errorf("%s: Backward wrote the layer's forward input", l.name)
		}
		l.layer.Forward(x, false)
		if !sameBits(x.Data, xWas.Data) {
			t.Errorf("%s: evaluation Forward wrote its input", l.name)
		}
	}
}

// TestReLUBackwardRepeats: Backward reads the forward output instead of a
// mask of its own, so it is repeatable for as long as that output stands
// (the benchmark's nn.backward_ms rung calls it many times after one
// Forward) and refuses to run once it does not.
func TestReLUBackwardRepeats(t *testing.T) {
	rng := tensor.NewRNG(8)
	x, dy := tensor.New(4, 33), tensor.New(4, 33)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	r := NewReLU()
	r.Forward(x, true)
	first := r.Backward(dy).Clone()
	if second := r.Backward(dy); !sameBits(first.Data, second.Data) {
		t.Error("a second Backward after one training Forward gives different bits")
	}
	for i, v := range x.Data {
		want := 0.0
		if v > 0 {
			want = dy.Data[i]
		}
		if first.Data[i] != want {
			t.Fatalf("dx[%d] = %v for x = %v, dy = %v", i, first.Data[i], v, dy.Data[i])
		}
	}

	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != noTrainForward("ReLU") {
				t.Errorf("Backward after %s: recovered %v, want the noTrainForward panic", what, got)
			}
		}()
		r.Backward(dy)
	}
	r.Forward(x, false)
	mustPanic("an evaluation Forward")
	half := tensor.New(2, 33)
	rng.FillNormal(half, 0, 1)
	r.Forward(half, true)
	mustPanic("a training Forward of a smaller batch")
}

// spyLayer is a parameter-free pass-through that counts Backward calls.
type spyLayer struct{ backwards int }

func (s *spyLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (s *spyLayer) Backward(dy *tensor.Tensor) *tensor.Tensor           { s.backwards++; return dy }
func (s *spyLayer) Params() []*Param                                    { return nil }

// TestNetworkBackwardStopsAtFirstParameterisedLayer: nothing trains on
// the input gradient, so the first layer that has parameters accumulates
// them without computing its dX and no layer below it runs at all; the
// parameter gradients are those of walking every layer.
func TestNetworkBackwardStopsAtFirstParameterisedLayer(t *testing.T) {
	rng := tensor.NewRNG(12)
	spy := &spyLayer{}
	first := NewLinear(12, 5, rng)
	net := NewNetwork(spy, NewFlatten(), first, NewReLU(), NewLinear(5, 3, rng))
	x := tensor.New(4, 3, 4)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 2, 1, 1}

	net.ZeroGrad()
	_, g := SoftmaxCrossEntropy(net.Forward(x, true), labels)
	if got := net.Backward(g); got != nil {
		t.Fatalf("Network.Backward returned %v, want nil", got)
	}
	if spy.backwards != 0 {
		t.Errorf("a layer below the first parameterised one ran Backward %d times", spy.backwards)
	}
	if first.dx != nil {
		t.Error("the first parameterised layer computed an input gradient")
	}
	got := net.GradVector()

	net.ZeroGrad()
	_, g = SoftmaxCrossEntropy(net.Forward(x, true), labels)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	if !sameBits(got, net.GradVector()) {
		t.Error("parameter gradients differ from a walk through every layer")
	}
}

// gradsAsAccumulated computes a layer's parameter gradients the way
// Backward did while it accumulated: the dW product into a scratch
// tensor, added to a cleared gradient, and dB added to a cleared one
// sum by sum. It reads the forward state the layer holds for dy's batch.
func gradsAsAccumulated(l Layer, dy *tensor.Tensor) (dw, db *tensor.Tensor) {
	rowSums := func(gathered *tensor.Tensor) *tensor.Tensor {
		rows, n := gathered.Dim(0), gathered.Dim(1)
		db := tensor.New(rows)
		for r := 0; r < rows; r++ {
			s := 0.0
			for _, v := range gathered.Data[r*n : (r+1)*n] {
				s += v
			}
			db.Data[r] += s
		}
		return db
	}
	switch l := l.(type) {
	case *Linear:
		dw = tensor.New(l.In, l.Out).AddInPlace(tensor.MatMulTransA(l.x, dy))
		db = tensor.New(l.Out)
		for i := 0; i < dy.Dim(0); i++ {
			for j := 0; j < l.Out; j++ {
				db.Data[j] += dy.Data[i*l.Out+j]
			}
		}
	case *Conv2D:
		ckk := l.InC * l.KH * l.KW
		dw = tensor.New(l.OutC, ckk).AddInPlace(tensor.MatMulTransB(l.dy, tensor.FromSlice(l.cols, ckk, l.dy.Dim(1))))
		db = rowSums(l.dy)
	case *Conv1D:
		ck := l.InC * l.K
		dw = tensor.New(l.OutC, ck).AddInPlace(tensor.MatMulTransB(l.dy, tensor.FromSlice(l.cols, ck, l.dy.Dim(1))))
		db = rowSums(l.dy)
	}
	return dw, db
}

// TestBackwardSetsParameterGradients pins the Layer contract "Backward
// sets the parameter gradients of this call": whatever Param.Grad held —
// NaN here, or an earlier Backward's gradient — the result is the one a
// cleared gradient gave while Backward added to it, to the bit. The
// upstream gradient's first channel is −0 against a non-negative input,
// so every product of those dW and dB sums is −0: a sum that started at
// its first term instead of +0 would keep the sign.
func TestBackwardSetsParameterGradients(t *testing.T) {
	rng := tensor.NewRNG(21)
	layers := []struct {
		name  string
		layer Layer
		in    []int
	}{
		{"linear", NewLinear(10, 4, rng), []int{5, 10}},
		{"linear-wide", NewLinear(300, 7, rng), []int{16, 300}},
		{"conv2d", NewConv2D(2, 3, 3, 3, 1, 1, 6, 6, rng), []int{3, 2, 6, 6}},
		{"conv2d-stride2", NewConv2D(2, 5, 3, 3, 2, 0, 7, 7, rng), []int{4, 2, 7, 7}},
		{"conv1d", NewConv1D(2, 3, 4, 2, 1, 12, rng), []int{3, 2, 12}},
	}
	negZero := math.Copysign(0, -1)
	for _, l := range layers {
		x := tensor.New(l.in...)
		rng.FillUniform(x, 0, 1)
		out := l.layer.Forward(x, true)
		upstream := func() *tensor.Tensor {
			dy := tensor.New(out.Shape()...)
			rng.FillNormal(dy, 0, 1)
			per, channels := dy.Size()/dy.Dim(0), dy.Dim(1)
			for i := 0; i < dy.Dim(0); i++ {
				clearTo(dy.Data[i*per:i*per+per/channels], negZero)
			}
			return dy
		}
		dy, other := upstream(), upstream()
		w, b := l.layer.Params()[0], l.layer.Params()[1]

		w.ZeroGrad()
		b.ZeroGrad()
		l.layer.Backward(dy)
		wantW, wantB := gradsAsAccumulated(l.layer, dy)
		if !sameBits(w.Grad.Data, wantW.Data) || !sameBits(b.Grad.Data, wantB.Data) {
			t.Errorf("%s: Backward on a cleared gradient differs from product-then-add", l.name)
		}
		if math.Signbit(w.Grad.Data[0]) || math.Signbit(b.Grad.Data[0]) {
			t.Errorf("%s: a sum of −0 terms came out −0: it did not start at +0", l.name)
		}

		clearTo(w.Grad.Data, math.NaN())
		clearTo(b.Grad.Data, math.NaN())
		l.layer.Backward(dy)
		if !sameBits(w.Grad.Data, wantW.Data) || !sameBits(b.Grad.Data, wantB.Data) {
			t.Errorf("%s: Backward on a NaN-filled gradient differs from Backward on a cleared one", l.name)
		}

		l.layer.Backward(other)
		l.layer.Backward(dy)
		if !sameBits(w.Grad.Data, wantW.Data) || !sameBits(b.Grad.Data, wantB.Data) {
			t.Errorf("%s: after two Backwards the gradient is not the second call's alone", l.name)
		}
	}
}

func clearTo(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}
