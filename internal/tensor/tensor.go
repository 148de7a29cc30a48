// Package tensor implements a small dense float64 tensor library used as
// the numerical substrate for the neural-network training stack. It is
// deliberately minimal — shapes, elementwise arithmetic, blocked matrix
// multiplication, im2col-based convolution kernels and pooling — which is
// everything the federated-learning simulation needs, built on the
// standard library only.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 tensor. The zero value is not
// usable; construct tensors with New, Zeros, FromSlice or the helpers.
type Tensor struct {
	// Data holds the elements in row-major order. Exposed so hot loops
	// (layer kernels, aggregation) can operate on it directly.
	Data  []float64
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly the number of elements the
// shape implies.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data has %d elements, shape %v needs %d", len(data), copyShape(shape), n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Ensure returns a tensor of the given shape for the caller to overwrite,
// reusing t where it can: t itself if it already has that shape, a tensor
// over the front of t's storage if that is large enough, and a newly
// allocated one otherwise (t may be nil). Used like append — keep what it
// returns — it makes a buffer grow-only: after the largest shape has been
// seen once, smaller and equal ones cost at most a header. The contents
// are unspecified.
func Ensure(t *Tensor, shape ...int) *Tensor {
	if t == nil {
		return New(shape...)
	}
	n, match := 1, len(t.shape) == len(shape)
	for i, d := range shape {
		n *= d
		match = match && t.shape[i] == d
	}
	if match {
		return t
	}
	if n <= cap(t.Data) {
		return FromSlice(t.Data[:n], shape...)
	}
	return New(shape...)
}

// copyShape is a panic message's copy of a shape argument: formatting the
// argument itself would move every caller's variadic shape to the heap.
func copyShape(shape []int) []int { return append([]int(nil), shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", copyShape(shape)))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Data: make([]float64, len(t.Data)), shape: append([]int(nil), t.shape...)}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of the same
// total size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// offset computes the flat index of a multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and u have identical shape and elements within
// tolerance eps.
func (t *Tensor) Equal(u *Tensor, eps float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.Data {
		if math.Abs(t.Data[i]-u.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.Data))
}
