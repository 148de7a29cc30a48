package nn

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

// TestGrowOnlyScratchMatchesFreshNetwork: a layer serves a smaller batch
// from the front of the storage a larger one grew, so whatever the larger
// batch left there must never reach a result. A network that has run a
// batch of 6 forward and backward computes, for a batch of 2, the logits
// and gradients a fresh network of the same weights computes — bit for
// bit, in training and in evaluation mode, for every architecture.
func TestGrowOnlyScratchMatchesFreshNetwork(t *testing.T) {
	builds := map[string]struct {
		net   func() *Network
		shape []int
	}{
		"cnn2": {func() *Network {
			return NewCNN2(CNN2Config{InC: 1, H: 8, W: 8, Classes: 4, C1: 3, C2: 5, Hidden: 7}, tensor.NewRNG(1))
		}, []int{1, 8, 8}},
		"cnn3": {func() *Network {
			return NewCNN3(CNN3Config{InC: 2, H: 8, W: 8, Classes: 4, C1: 3, C2: 4, C3: 5, Hidden: 6}, tensor.NewRNG(2))
		}, []int{2, 8, 8}},
		"seqcnn": {func() *Network {
			return NewSeqCNN(SeqCNNConfig{L: 1000, Classes: 4, C1: 3, C2: 4, C3: 5, Hidden: 6}, tensor.NewRNG(3))
		}, []int{1, 1000}},
	}
	for name, b := range builds {
		rng := tensor.NewRNG(7)
		batch := func(n int) (*tensor.Tensor, []int) {
			x := tensor.New(append([]int{n}, b.shape...)...)
			rng.FillNormal(x, 0, 1)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(4)
			}
			return x, labels
		}
		bigX, bigY := batch(6)
		smallX, smallY := batch(2)
		step := func(net *Network, x *tensor.Tensor, y []int) (logits, grads []float64) {
			net.ZeroGrad()
			out := net.Forward(x, true)
			logits = append(logits, out.Data...)
			_, g := SoftmaxCrossEntropy(out, y)
			net.Backward(g)
			return logits, net.GradVector()
		}
		used, fresh := b.net(), b.net()
		step(used, bigX, bigY)
		used.Forward(bigX, false)
		gotLogits, gotGrads := step(used, smallX, smallY)
		wantLogits, wantGrads := step(fresh, smallX, smallY)
		if !sameBits(gotLogits, wantLogits) || !sameBits(gotGrads, wantGrads) {
			t.Errorf("%s: a batch of 2 after a batch of 6 differs from a batch of 2 on a fresh network", name)
		}
		if eval := used.Forward(smallX, false); !sameBits(eval.Data, wantLogits) {
			t.Errorf("%s: evaluation-mode forward differs from the training-mode one", name)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBackwardNeedsTrainingForward: an evaluation-mode forward skips the
// pooling argmax tables and overwrites the output ReLU routes by, so a
// Backward after it has nothing to route gradients with and must say so
// instead of returning the previous batch's routing.
func TestBackwardNeedsTrainingForward(t *testing.T) {
	x := tensor.New(2, 1, 4, 4)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	for name, l := range map[string]Layer{"relu": NewReLU(), "pool2d": NewMaxPool2D(2)} {
		dy := l.Forward(x, true)
		l.Backward(dy) // fine: follows a training forward
		l.Forward(x, false)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward after an evaluation-mode Forward did not panic", name)
				}
			}()
			l.Backward(dy)
		}()
	}
}
