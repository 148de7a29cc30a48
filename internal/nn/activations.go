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
	r.out = ensureLike(r.out, x)
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
	r.dx = ensureLike(r.dx, dy)
	tensor.ReluGradInto(r.dx.Data, r.out.Data, dy.Data)
	return r.dx
}

// Params returns nil: ReLU has no trainable state.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes [N, d1, d2, ...] to [N, d1*d2*...]. It is a view: data
// is shared with the input, and the two headers (out, dx) are reused while
// the batch keeps its shape.
type Flatten struct {
	inShape []int
	out, dx *tensor.Tensor
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all dimensions after the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = f.inShape[:0]
	for i := range x.Rank() {
		f.inShape = append(f.inShape, x.Dim(i))
	}
	n := x.Dim(0)
	if !hasShape(f.out, n, x.Size()/n) {
		f.out = x.Reshape(n, x.Size()/n)
	}
	f.out.Data = x.Data
	return f.out
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if !hasShape(f.dx, f.inShape...) {
		f.dx = dy.Reshape(f.inShape...)
	}
	f.dx.Data = dy.Data
	return f.dx
}

// Params returns nil: Flatten has no trainable state.
func (f *Flatten) Params() []*Param { return nil }
