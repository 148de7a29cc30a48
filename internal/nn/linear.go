package nn

import (
	"middle/internal/tensor"
)

// Linear is a fully connected layer: y = x·W + b for x of shape [N, In].
// The layer owns its output and gradient scratch buffers; tensors
// returned by Forward/Backward are valid until the next call.
type Linear struct {
	In, Out int
	W, B    *Param

	x  *tensor.Tensor // cached input for Backward
	y  *tensor.Tensor // forward output [N, Out]
	dx *tensor.Tensor // input gradient [N, In]
}

// NewLinear constructs a fully connected layer with Xavier-uniform weights.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   newParam("linear.W", in, out),
		B:   newParam("linear.B", out),
	}
	rng.XavierUniform(l.W.Value, in, out)
	return l
}

// Forward computes x·W + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(shapeError("Linear", "[N, in]", x.Shape()))
	}
	l.x = x
	n := x.Dim(0)
	l.y = tensor.Ensure(l.y, n, l.Out)
	y := tensor.MatMulInto(l.y, x, l.W.Value)
	bd := l.B.Value.Data
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Backward sets dW = xᵀ·dy and db = Σ rows(dy), returning dx = dy·Wᵀ.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(dy)
	l.dx = tensor.Ensure(l.dx, dy.Dim(0), l.In)
	return tensor.MatMulTransBInto(l.dx, dy, l.W.Value)
}

// backwardParams is the half of Backward that sets dW and db (from +0).
func (l *Linear) backwardParams(dy *tensor.Tensor) {
	tensor.MatMulTransAInto(l.W.Grad, l.x, dy)
	db := l.B.Grad.Data
	clear(db)
	n := dy.Dim(0)
	for i := 0; i < n; i++ {
		row := dy.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			db[j] += row[j]
		}
	}
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
