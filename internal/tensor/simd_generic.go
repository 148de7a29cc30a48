//go:build !amd64

package tensor

// Portable fallbacks for architectures without the AVX2 kernels. These
// keep the dispatcher names identical so matmul.go is arch-agnostic.

// HasAVX2 reports whether the AVX2+FMA kernels are in use: never, on
// this architecture.
func HasAVX2() bool { return false }

func axpy(alpha float64, x, y []float64) {
	scalarAxpy(alpha, x, y)
}

func axpy4(av0, av1, av2, av3 float64, b, c0, c1, c2, c3 []float64) {
	scalarAxpy4(av0, av1, av2, av3, b, c0, c1, c2, c3)
}

func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	return scalarDot2x2(a0, a1, b0, b1)
}

func dotVec(x, y []float64) float64 {
	return scalarDot(x, y)
}
