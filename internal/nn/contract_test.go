package nn

import (
	"testing"

	"middle/internal/tensor"
)

// TestLayersDoNotWriteTheirInput pins the rule layer.go states: a layer
// reads the tensors it is handed and writes only its own buffers. ReLU
// relies on it — its Backward reads the output its Forward returned,
// which by then is the next layer's input — and so does every layer that
// keeps a reference to its input (Linear) or returns a view of it
// (Flatten, Dropout in evaluation mode).
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
		{"dropout", NewDropout(0.5, tensor.NewRNG(6)), []int{3, 20}},
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
