package nn

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

// lossOf runs a forward pass and returns the scalar loss. Used as the
// function under numerical differentiation.
func lossOf(net *Network, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(x, false)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// checkGradients compares backprop gradients against central finite
// differences for every parameter of net. The networks under test have
// no stochastic layer, so the training-mode forward Backward needs and
// lossOf's evaluation-mode one compute the same function.
func checkGradients(t *testing.T, name string, net *Network, x *tensor.Tensor, labels []int) {
	t.Helper()
	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)

	const eps = 1e-5
	for _, p := range net.Params() {
		// Check a deterministic subset of coordinates to keep runtime low:
		// every parameter tensor gets its first, middle and last element
		// plus a stride sweep.
		n := p.Value.Size()
		stride := n/7 + 1
		for i := 0; i < n; i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOf(net, x, labels)
			p.Value.Data[i] = orig - eps
			lm := lossOf(net, x, labels)
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s: param %s[%d] grad mismatch: backprop %v, numeric %v", name, p.Name, i, got, num)
			}
		}
	}
}

func TestGradLinear(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork(NewLinear(6, 4, rng))
	x := tensor.New(3, 6)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "linear", net, x, []int{0, 2, 3})
}

func TestGradMLPWithReLU(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewMLP(MLPConfig{In: 5, Classes: 3, Hidden: []int{7, 6}}, rng)
	x := tensor.New(4, 5)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "mlp", net, x, []int{0, 1, 2, 0})
}

func TestGradConv2D(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork(
		NewConv2D(2, 3, 3, 3, 1, 1, 6, 6, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewFlatten(),
		NewLinear(3*3*3, 4, rng),
	)
	x := tensor.New(2, 2, 6, 6)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "conv2d", net, x, []int{1, 3})
}

func TestGradConv2DStride(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewNetwork(
		NewConv2D(1, 2, 3, 3, 2, 0, 9, 9, rng), // stride 2, valid
		NewFlatten(),
		NewLinear(2*4*4, 3, rng),
	)
	x := tensor.New(2, 1, 9, 9)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "conv2d-stride", net, x, []int{0, 2})
}

func TestGradConv1D(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork(
		NewConv1D(1, 3, 5, 2, 1, 20, rng),
		NewReLU(),
		NewMaxPool1D(3),
		NewFlatten(),
		NewLinear(3*3, 4, rng),
	)
	x := tensor.New(2, 1, 20)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "conv1d", net, x, []int{3, 1})
}

func TestGradCNN2Full(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewCNN2(CNN2Config{InC: 1, H: 8, W: 8, Classes: 4, C1: 2, C2: 3, Hidden: 8}, rng)
	x := tensor.New(2, 1, 8, 8)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "cnn2", net, x, []int{0, 3})
}

func TestGradCNN3Full(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := NewCNN3(CNN3Config{InC: 2, H: 8, W: 8, Classes: 3, C1: 2, C2: 2, C3: 3, Hidden: 6}, rng)
	x := tensor.New(2, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "cnn3", net, x, []int{2, 1})
}

func TestGradSeqCNN(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := NewSeqCNN(SeqCNNConfig{L: 1600, Classes: 3, C1: 2, C2: 2, C3: 3, Hidden: 6}, rng)
	x := tensor.New(2, 1, 1600)
	rng.FillNormal(x, 0, 1)
	checkGradients(t, "seqcnn", net, x, []int{0, 2})
}

// TestGradInputGradient checks the gradient with respect to the network's
// input. Network.Backward does not compute it (nothing trains on it), so
// the test walks the layers' own Backward; it validates the full backward
// chain end to end, first layer's input gradient included.
func TestGradInputGradient(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewMLP(MLPConfig{In: 4, Classes: 3, Hidden: []int{5}}, rng)
	x := tensor.New(2, 4)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 2}

	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	if got := net.Backward(dlogits); got != nil {
		t.Fatalf("Network.Backward returned %v, want nil", got)
	}
	dx := dlogits
	for i := len(net.Layers) - 1; i >= 0; i-- {
		dx = net.Layers[i].Backward(dx)
	}

	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(net, x, labels)
		x.Data[i] = orig - eps
		lm := lossOf(net, x, labels)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: backprop %v numeric %v", i, dx.Data[i], num)
		}
	}
}
