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

func axpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3 float64, b0, b1, c0, c1, c2, c3 []float64) {
	scalarAxpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3, b0, b1, c0, c1, c2, c3)
}

func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	return scalarDot2x2(a0, a1, b0, b1)
}

func dotVec(x, y []float64) float64 {
	return scalarDot(x, y)
}

func dot3x1(a0, a1, a2, b []float64) (s0, s1, s2 float64) {
	return scalarDot3x1(a0, a1, a2, b)
}

// AxpyUnfused computes y[j] += alpha*x[j], the product rounded before
// the sum.
func AxpyUnfused(alpha float64, x, y []float64) { scalarAxpyUnfused(alpha, x, y) }

// MomentumStep is one momentum-SGD update of w from gradient g and
// velocity v; fresh treats v as cleared without reading it.
func MomentumStep(w, g, v []float64, mu, lr float64, fresh bool) {
	scalarMomentum(w, g, v, mu, lr, fresh)
}

// ReluInto computes dst[i] = x[i] if x[i] > 0, else +0.
func ReluInto(dst, x []float64) { scalarRelu(dst, x) }

// ReluGradInto computes dx[i] = dy[i] where out[i] > 0, else +0.
func ReluGradInto(dx, out, dy []float64) { scalarReluGrad(dx, out, dy) }

// MaxPool2x2Row pools len(out) 2×2 windows of the input rows r0 and r1
// (flat input indices idx0 and idx0+pitch), first strict maximum first;
// argmax may be nil.
func MaxPool2x2Row(out []float64, argmax []int, r0, r1 []float64, idx0, pitch int) {
	scalarMaxPool2x2Row(out, argmax, r0, r1, idx0, pitch)
}
