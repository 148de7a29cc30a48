package nn

import (
	"fmt"

	"middle/internal/tensor"
)

// The paper's model zoo (§6.1.2): MNIST and EMNIST train on a CNN with
// 2 convolutional + 2 fully connected layers; CIFAR10 and SpeechCommands
// train on a CNN with 3 convolutional + 2 fully connected layers. The
// builders below are parameterised by input geometry and channel widths
// so the same architectures run at paper scale and at the reduced "fast"
// scale used by tests and benchmarks.

// CNN2Config describes a 2-conv/2-fc image classifier.
type CNN2Config struct {
	InC, H, W int // input geometry
	Classes   int
	C1, C2    int // conv channel widths
	Hidden    int // fully connected hidden width
}

// NewCNN2 builds conv5x5→ReLU→pool2→conv5x5→ReLU→pool2→fc→ReLU→fc.
// H and W must be divisible by 4 (two 2× poolings).
func NewCNN2(cfg CNN2Config, rng *tensor.RNG) *Network {
	if cfg.H%4 != 0 || cfg.W%4 != 0 {
		panic(fmt.Sprintf("nn: CNN2 input %dx%d not divisible by 4", cfg.H, cfg.W))
	}
	h2, w2 := cfg.H/2, cfg.W/2
	h4, w4 := cfg.H/4, cfg.W/4
	flat := cfg.C2 * h4 * w4
	return NewNetwork(
		NewConv2D(cfg.InC, cfg.C1, 5, 5, 1, 2, cfg.H, cfg.W, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewConv2D(cfg.C1, cfg.C2, 5, 5, 1, 2, h2, w2, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewFlatten(),
		NewLinear(flat, cfg.Hidden, rng),
		NewReLU(),
		NewLinear(cfg.Hidden, cfg.Classes, rng),
	)
}

// CNN3Config describes a 3-conv/2-fc image classifier.
type CNN3Config struct {
	InC, H, W  int
	Classes    int
	C1, C2, C3 int
	Hidden     int
}

// NewCNN3 builds three conv3x3→ReLU→pool2 stages followed by fc→ReLU→fc.
// H and W must be divisible by 8 (three 2× poolings).
func NewCNN3(cfg CNN3Config, rng *tensor.RNG) *Network {
	if cfg.H%8 != 0 || cfg.W%8 != 0 {
		panic(fmt.Sprintf("nn: CNN3 input %dx%d not divisible by 8", cfg.H, cfg.W))
	}
	flat := cfg.C3 * (cfg.H / 8) * (cfg.W / 8)
	return NewNetwork(
		NewConv2D(cfg.InC, cfg.C1, 3, 3, 1, 1, cfg.H, cfg.W, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewConv2D(cfg.C1, cfg.C2, 3, 3, 1, 1, cfg.H/2, cfg.W/2, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewConv2D(cfg.C2, cfg.C3, 3, 3, 1, 1, cfg.H/4, cfg.W/4, rng),
		NewReLU(),
		NewMaxPool2D(),
		NewFlatten(),
		NewLinear(flat, cfg.Hidden, rng),
		NewReLU(),
		NewLinear(cfg.Hidden, cfg.Classes, rng),
	)
}

// SeqCNNConfig describes the 3-conv/2-fc 1-D classifier used for the
// speech-commands-profile task (long sparse input vectors).
type SeqCNNConfig struct {
	L          int // input length
	Classes    int
	C1, C2, C3 int
	Hidden     int
}

// NewSeqCNN builds conv1d(k32,s8)→ReLU→pool4→conv1d(k8,s2)→ReLU→pool2→
// conv1d(k4,s2)→ReLU→fc→ReLU→fc for single-channel sequences.
func NewSeqCNN(cfg SeqCNNConfig, rng *tensor.RNG) *Network {
	l1 := tensor.ConvOut(cfg.L, 32, 8, 0)
	p1 := l1 / 4
	l2 := tensor.ConvOut(p1, 8, 2, 0)
	p2 := l2 / 2
	l3 := tensor.ConvOut(p2, 4, 2, 0)
	if l3 <= 0 {
		panic(fmt.Sprintf("nn: SeqCNN input length %d too short", cfg.L))
	}
	return NewNetwork(
		NewConv1D(1, cfg.C1, 32, 8, 0, cfg.L, rng),
		NewReLU(),
		NewMaxPool1D(4),
		NewConv1D(cfg.C1, cfg.C2, 8, 2, 0, p1, rng),
		NewReLU(),
		NewMaxPool1D(2),
		NewConv1D(cfg.C2, cfg.C3, 4, 2, 0, p2, rng),
		NewReLU(),
		NewFlatten(),
		NewLinear(cfg.C3*l3, cfg.Hidden, rng),
		NewReLU(),
		NewLinear(cfg.Hidden, cfg.Classes, rng),
	)
}

// MLPConfig describes a simple multi-layer perceptron, useful for the
// strongly-convex-adjacent theory experiments and fast smoke tests.
type MLPConfig struct {
	In, Classes int
	Hidden      []int
}

// NewMLP builds fc(→h1)→ReLU→…→fc(→classes). With no hidden layers it is
// multinomial logistic regression, which satisfies the paper's convexity
// assumptions (§5, Assumptions 1–2).
func NewMLP(cfg MLPConfig, rng *tensor.RNG) *Network {
	var layers []Layer
	in := cfg.In
	for _, h := range cfg.Hidden {
		layers = append(layers, NewLinear(in, h, rng), NewReLU())
		in = h
	}
	layers = append(layers, NewLinear(in, cfg.Classes, rng))
	return NewNetwork(layers...)
}
