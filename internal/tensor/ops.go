package tensor

import (
	"fmt"
	"math"
)

// AddInPlace adds u to t elementwise.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.mustMatch(u, "AddInPlace")
	axpy(1, u.Data, t.Data)
	return t
}

// SubInPlace subtracts u from t elementwise.
func (t *Tensor) SubInPlace(u *Tensor) *Tensor {
	t.mustMatch(u, "SubInPlace")
	axpy(-1, u.Data, t.Data)
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaledInPlace performs t += s*u (axpy).
func (t *Tensor) AddScaledInPlace(s float64, u *Tensor) *Tensor {
	t.mustMatch(u, "AddScaledInPlace")
	axpy(s, u.Data, t.Data)
	return t
}

// Add returns t + u as a new tensor.
func Add(t, u *Tensor) *Tensor { return t.Clone().AddInPlace(u) }

// Sub returns t − u as a new tensor.
func Sub(t, u *Tensor) *Tensor { return t.Clone().SubInPlace(u) }

// Scale returns s·t as a new tensor.
func Scale(s float64, t *Tensor) *Tensor { return t.Clone().ScaleInPlace(s) }

// Zero sets every element to 0.
func (t *Tensor) Zero() { clear(t.Data) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, x := range t.Data {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the largest element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, x := range t.Data {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, x := range t.Data {
		if x < m {
			m = x
		}
	}
	return m
}

// Dot returns the inner product of t and u viewed as flat vectors.
func Dot(t, u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	s := 0.0
	for i := range t.Data {
		s += t.Data[i] * u.Data[i]
	}
	return s
}

// ArgMaxRows treats t as a [rows, cols] matrix and returns the index of
// the maximum element of each row. Ties resolve to the first maximum.
func (t *Tensor) ArgMaxRows() []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := math.Inf(-1), 0
		row := t.Data[r*cols : (r+1)*cols]
		for c, x := range row {
			if x > best {
				best, bi = x, c
			}
		}
		out[r] = bi
	}
	return out
}

// SoftmaxRowsInto treats t as [rows, cols] and writes its rows,
// softmax-normalised, into dst (same size; it may be t itself), computed
// stably by subtracting the row max. It returns dst.
func SoftmaxRowsInto(dst, t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRowsInto requires rank 2, got shape %v", t.shape))
	}
	t.mustMatch(dst, "SoftmaxRowsInto")
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		in := t.Data[r*cols : (r+1)*cols]
		o := dst.Data[r*cols : (r+1)*cols]
		mx := math.Inf(-1)
		for _, x := range in {
			if x > mx {
				mx = x
			}
		}
		sum := 0.0
		for c, x := range in {
			e := math.Exp(x - mx)
			o[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range o {
			o[c] *= inv
		}
	}
	return dst
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, u.shape))
	}
}
