package nn

import (
	"middle/internal/tensor"
)

// ReLU applies max(x, 0) elementwise. It reuses its output and gradient
// buffers across steps; returned tensors are valid until the next call.
// Backward reads the layer's own output (out > 0 exactly where x > 0),
// which no later layer writes (see Layer).
type ReLU struct {
	out     *tensor.Tensor
	dx      *tensor.Tensor
	trained int // elements of the last Forward if it was a training one, else 0
}

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0); a training-mode call arms Backward.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape()...)
	tensor.ReluInto(r.out.Data, x.Data)
	r.trained = 0
	if train {
		r.trained = len(x.Data)
	}
	return r.out
}

// Backward zeroes the gradient where the activation was clipped.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.trained != len(dy.Data) {
		panic(noTrainForward("ReLU"))
	}
	r.dx = tensor.Ensure(r.dx, dy.Shape()...)
	tensor.ReluGradInto(r.dx.Data, r.out.Data, dy.Data)
	return r.dx
}

// Params returns nil: ReLU has no trainable state.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes [N, d1, d2, ...] to [N, d1*d2*...]. It is a view: data
// is shared with the input.
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all dimensions after the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params returns nil: Flatten has no trainable state.
func (f *Flatten) Params() []*Param { return nil }
