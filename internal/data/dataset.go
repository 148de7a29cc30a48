// Package data provides the learning tasks of the MIDDLE evaluation.
// The paper trains on MNIST, EMNIST-Letters, CIFAR10 and SpeechCommands;
// those corpora are not available to an offline stdlib-only build, so this
// package generates synthetic class-conditional datasets with matching
// geometry (see DESIGN.md, "Substitutions") plus the Non-IID label-skew
// partitioners of §6.1.2.
package data

import (
	"fmt"

	"middle/internal/tensor"
)

// Dataset is an in-memory labelled dataset. Samples are stored flattened
// and contiguous; Batch materialises any index subset as a tensor.
type Dataset struct {
	Name    string
	Shape   []int // per-sample shape, e.g. [1, 28, 28] or [1, 4000]
	Classes int

	sampleSize int // prod(Shape), fixed at construction
	data       []float64
	labels     []int
}

// NewDataset wraps raw storage in a Dataset. data must hold len(labels)
// samples of prod(shape) values each.
func NewDataset(name string, shape []int, classes int, data []float64, labels []int) *Dataset {
	ss := 1
	for _, d := range shape {
		ss *= d
	}
	if len(data) != ss*len(labels) {
		panic(fmt.Sprintf("data: %d values cannot hold %d samples of size %d", len(data), len(labels), ss))
	}
	for i, y := range labels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("data: label %d of sample %d out of range [0,%d)", y, i, classes))
		}
	}
	return &Dataset{Name: name, Shape: append([]int(nil), shape...), Classes: classes, sampleSize: ss, data: data, labels: labels}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.labels) }

// SampleSize returns the number of values per sample.
func (d *Dataset) SampleSize() int { return d.sampleSize }

// Label returns the label of sample i.
func (d *Dataset) Label(i int) int { return d.labels[i] }

// Sample returns a read-only view of the values of sample i.
func (d *Dataset) Sample(i int) []float64 {
	return d.data[i*d.sampleSize : (i+1)*d.sampleSize]
}

// Batch materialises the samples at idx as a tensor of shape
// [len(idx), Shape...] along with their labels, both freshly allocated.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(idx, nil, nil)
}

// BatchInto is Batch into storage the caller owns, used like append: pass
// the previous call's results back in and keep what it returns. x is
// reused as tensor.Ensure reuses it (nil is fine), labels likewise: a
// loop drawing equal-sized batches allocates nothing after its first.
func (d *Dataset) BatchInto(idx []int, x *tensor.Tensor, labels []int) (*tensor.Tensor, []int) {
	ss := d.sampleSize
	if !d.isBatchOf(x, len(idx)) { // checked first: building the shape allocates
		x = tensor.Ensure(x, append([]int{len(idx)}, d.Shape...)...)
	}
	if cap(labels) < len(idx) {
		labels = make([]int, len(idx))
	}
	labels = labels[:len(idx)]
	for bi, i := range idx {
		copy(x.Data[bi*ss:(bi+1)*ss], d.Sample(i))
		labels[bi] = d.labels[i]
	}
	return x, labels
}

// isBatchOf reports whether x has shape [n, Shape...].
func (d *Dataset) isBatchOf(x *tensor.Tensor, n int) bool {
	if x == nil || x.Rank() != len(d.Shape)+1 || x.Dim(0) != n {
		return false
	}
	for i, s := range d.Shape {
		if x.Dim(i+1) != s {
			return false
		}
	}
	return true
}

// All returns the index list [0, Len).
func (d *Dataset) All() []int {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ByClass returns, for each class, the indices of its samples.
func (d *Dataset) ByClass() [][]int {
	out := make([][]int, d.Classes)
	for i, y := range d.labels {
		out[y] = append(out[y], i)
	}
	return out
}
