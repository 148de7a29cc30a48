package tensor

// Scalar reference kernels for the innermost matmul loops. These are the
// portable implementations behind axpy/axpy4/dot2x2; on amd64 with
// AVX2+FMA the dispatchers in simd_amd64.go replace the bulk of the work
// with vector code and fall back to these for tails and small inputs.
//
// axpy-style kernels carry no cross-element reduction: their vector form
// differs from the scalar one only by fusing the multiply-add. dot-style
// kernels also reduce in vector lanes (dot2x2 in 4, dotVec in 16), which
// reorders the summation. Either way the order is fixed per build/CPU and
// input length, so results are bit-identical across runs on the same
// machine (HasAVX2 tells golden values which family produced them).

// scalarAxpy computes y[j] += alpha*x[j].
func scalarAxpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for j, xv := range x {
		y[j] += alpha * xv
	}
}

// scalarAxpy4 computes cR[j] += avR*b[j] for four output rows sharing
// one streamed b row.
func scalarAxpy4(av0, av1, av2, av3 float64, b, c0, c1, c2, c3 []float64) {
	c0 = c0[:len(b)]
	c1 = c1[:len(b)]
	c2 = c2[:len(b)]
	c3 = c3[:len(b)]
	for j, bv := range b {
		c0[j] += av0 * bv
		c1[j] += av1 * bv
		c2[j] += av2 * bv
		c3[j] += av3 * bv
	}
}

// scalarDot2x2 computes the four dot products of {a0, a1} × {b0, b1}.
func scalarDot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	a1 = a1[:len(a0)]
	b0 = b0[:len(a0)]
	b1 = b1[:len(a0)]
	for p, av0 := range a0 {
		av1 := a1[p]
		bv0, bv1 := b0[p], b1[p]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s10 += av1 * bv0
		s11 += av1 * bv1
	}
	return s00, s01, s10, s11
}

// scalarDot computes the dot product of x and y.
func scalarDot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for p, xv := range x {
		s += xv * y[p]
	}
	return s
}
