// Package nn implements a layer-based neural-network training stack with
// full backpropagation on top of the tensor package. It provides the
// convolutional architectures the MIDDLE paper trains (2-conv and 3-conv
// CNNs for image tasks, a 1-D CNN for the speech task) and lossless
// flattening of all parameters to a vector, which is the representation
// the federated aggregation rules (paper Eqs. 6, 7, 9) operate on.
package nn

import (
	"fmt"

	"middle/internal/tensor"
)

// Param is a trainable parameter with the gradient the last Backward set.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the gradient. Backward overwrites it, so a caller needs
// this only to read a gradient before any Backward.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one stage of a feed-forward network. Forward caches whatever it
// needs so that the next Backward call can produce input gradients and
// set parameter gradients. Layers are stateful and not safe for
// concurrent use; every simulated device owns its own network instance.
//
// Two rules govern the tensors that pass between layers. A tensor a
// layer returns is its own scratch, valid until that layer's next Forward
// (or Backward, for a gradient) — scratch.go. And no layer writes a
// tensor it is handed: Forward's x and Backward's grad are read-only.
// Layers depend on the second rule for their own state — ReLU.Backward
// reads the output its Forward returned, which by then is the next
// layer's input; Linear keeps x itself; Flatten returns its input as the
// output — so a layer that computed in place would corrupt its
// neighbour's Backward.
// TestLayersDoNotWriteTheirInput checks every layer type.
type Layer interface {
	// Forward computes the layer output for a batch. train enables the
	// bookkeeping only Backward reads (pooling argmax tables), which an
	// evaluation forward skips.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the
	// layer output and returns the gradient with respect to the input.
	// Backward sets the parameter gradients of this call: it overwrites
	// Param.Grad, never adds to it. It must follow a Forward with train
	// set.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// noTrainForward is the panic message of a Backward that finds no
// bookkeeping from a training-mode Forward of the same batch.
func noTrainForward(layer string) string {
	return fmt.Sprintf("nn: %s.Backward without a preceding Forward(x, true) of the same batch", layer)
}

// shapeError builds a consistent panic message for layer shape mismatches.
func shapeError(layer string, want string, got []int) string {
	return fmt.Sprintf("nn: %s expects input %s, got shape %v", layer, want, got)
}
