package nn

import "middle/internal/tensor"

// Scratch-buffer helpers. Layers own their output and gradient buffers
// and reuse them across steps: a tensor returned by Forward/Backward is
// valid only until the same layer's next Forward/Backward call. Callers
// that need to retain a result must copy it (see DESIGN.md, "Performance
// architecture").

// The buffers are grow-only (tensor.Ensure, ensureLen): a batch smaller
// than the largest one the layer has seen is served from the front of the
// same storage, so an evaluation's ragged last chunk (16, …, 16, 8) or a
// short shard's batch costs a tensor header, not a reallocation of every
// buffer on the way down and again on the way back up. Their contents
// are unspecified; layers overwrite them fully. A training batch sets the
// high-water mark: hfl evaluates in chunks no larger (evalChunk).

// ensureLen returns s resliced to length n, or a new slice of that length
// if s is too small (cols matrices, pooling argmax tables).
func ensureLen[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// ensureLike is tensor.Ensure(t, like.Shape()...) without the copy of
// like's shape when t already has it.
func ensureLike(t, like *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.SameShape(like) {
		return t
	}
	return tensor.Ensure(t, like.Shape()...)
}

// hasShape reports whether t (which may be nil) has exactly shape. A layer
// whose view (Flatten's output, a convolution's per-sample gradient and
// column matrix) already has the shape it needs points it at the new data
// instead of building another header.
func hasShape(t *tensor.Tensor, shape ...int) bool {
	if t == nil || t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
