//go:build amd64

package tensor

// AVX2+FMA dispatch for the innermost kernels. The assembly routines in
// simd_amd64.s process a multiple-of-4 prefix; the dispatchers finish the
// tail with the scalar kernels. The split point depends only on the slice
// length, so results stay bit-identical run to run.

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)

//go:noescape
func axpy4AVX(av0, av1, av2, av3 float64, b, c0, c1, c2, c3 *float64, n int)

//go:noescape
func axpy4x2AVX(av0, av1, av2, av3, aw0, aw1, aw2, aw3 float64, b0, b1, c0, c1, c2, c3 *float64, n int)

//go:noescape
func dot2x2AVX(a0, a1, b0, b1 *float64, n int) (s00, s01, s10, s11 float64)

//go:noescape
func dotAVX(x, y *float64, n int) float64

//go:noescape
func dot3x1AVX(a0, a1, a2, b *float64, n int) (s0, s1, s2 float64)

//go:noescape
func axpyUnfusedAVX(alpha float64, x, y *float64, n int)

//go:noescape
func momentumAVX(w, grad, v *float64, n int, mu, lr float64, fresh bool)

//go:noescape
func reluAVX(dst, x *float64, n int)

//go:noescape
func reluGradAVX(dx, out, dy *float64, n int)

//go:noescape
func maxPool2x2RowAVX(out *float64, argmax *int, r0, r1 *float64, idx0, pitch, n int)

var useAVX2 = detectAVX2()

// HasAVX2 reports whether the AVX2+FMA kernels are in use. They fuse the
// multiply-add and reduce dot products in vector lanes, so their results
// differ from the portable kernels' in the last bits; golden values key
// on it.
func HasAVX2() bool { return useAVX2 }

// detectAVX2 reports whether the CPU and OS support AVX2 and FMA
// (including the XSAVE check that the OS preserves YMM state).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
	)
	if c1&cpuidOSXSAVE == 0 || c1&cpuidFMA == 0 {
		return false
	}
	// XCR0 bits 1 and 2: OS saves XMM and YMM registers on context switch.
	xlo, _ := xgetbvAsm()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	const cpuidAVX2 = 1 << 5
	return b7&cpuidAVX2 != 0
}

// simdMinLen is the shortest slice worth a vector-call round trip.
const simdMinLen = 8

// axpy computes y[j] += alpha*x[j] over len(x) elements.
func axpy(alpha float64, x, y []float64) {
	if useAVX2 && len(x) >= simdMinLen {
		m := len(x) &^ 3
		axpyAVX(alpha, &x[0], &y[0], m)
		if m < len(x) {
			scalarAxpy(alpha, x[m:], y[m:])
		}
		return
	}
	scalarAxpy(alpha, x, y)
}

// axpy4 computes cR[j] += avR*b[j] for four rows sharing one b row.
func axpy4(av0, av1, av2, av3 float64, b, c0, c1, c2, c3 []float64) {
	if useAVX2 && len(b) >= simdMinLen {
		m := len(b) &^ 3
		axpy4AVX(av0, av1, av2, av3, &b[0], &c0[0], &c1[0], &c2[0], &c3[0], m)
		if m < len(b) {
			scalarAxpy4(av0, av1, av2, av3, b[m:], c0[m:], c1[m:], c2[m:], c3[m:])
		}
		return
	}
	scalarAxpy4(av0, av1, av2, av3, b, c0, c1, c2, c3)
}

// axpy4x2 computes cR[j] += avR*b0[j] and then cR[j] += awR*b1[j] for
// four rows sharing two streamed b rows: the rank-2 form of two axpy4
// calls, with the same two multiply-adds per element in the same order
// and half the loads and stores of C.
func axpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3 float64, b0, b1, c0, c1, c2, c3 []float64) {
	if useAVX2 && len(b0) >= simdMinLen {
		n := len(b0)
		b1, c0, c1, c2, c3 = b1[:n], c0[:n], c1[:n], c2[:n], c3[:n]
		m := n &^ 3
		axpy4x2AVX(av0, av1, av2, av3, aw0, aw1, aw2, aw3, &b0[0], &b1[0], &c0[0], &c1[0], &c2[0], &c3[0], m)
		if m < n {
			scalarAxpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3, b0[m:], b1[m:], c0[m:], c1[m:], c2[m:], c3[m:])
		}
		return
	}
	scalarAxpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3, b0, b1, c0, c1, c2, c3)
}

// dot2x2 computes the four dot products of {a0, a1} × {b0, b1}.
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	if useAVX2 && len(a0) >= simdMinLen {
		m := len(a0) &^ 3
		s00, s01, s10, s11 = dot2x2AVX(&a0[0], &a1[0], &b0[0], &b1[0], m)
		if m < len(a0) {
			t00, t01, t10, t11 := scalarDot2x2(a0[m:], a1[m:], b0[m:], b1[m:])
			s00 += t00
			s01 += t01
			s10 += t10
			s11 += t11
		}
		return
	}
	return scalarDot2x2(a0, a1, b0, b1)
}

// dotVec computes the dot product of x and y.
func dotVec(x, y []float64) float64 {
	if useAVX2 && len(x) >= simdMinLen {
		m := len(x) &^ 3
		s := dotAVX(&x[0], &y[0], m)
		if m < len(x) {
			s += scalarDot(x[m:], y[m:])
		}
		return s
	}
	return scalarDot(x, y)
}

// dot3x1 computes the dot products of a0, a1 and a2 with one shared b,
// each exactly as dotVec would (same accumulator chains, same reduction)
// while b is loaded once for the three.
func dot3x1(a0, a1, a2, b []float64) (s0, s1, s2 float64) {
	if useAVX2 && len(b) >= simdMinLen {
		a0, a1, a2 = a0[:len(b)], a1[:len(b)], a2[:len(b)]
		m := len(b) &^ 3
		s0, s1, s2 = dot3x1AVX(&a0[0], &a1[0], &a2[0], &b[0], m)
		if m < len(b) {
			t0, t1, t2 := scalarDot3x1(a0[m:], a1[m:], a2[m:], b[m:])
			s0 += t0
			s1 += t1
			s2 += t2
		}
		return
	}
	return scalarDot3x1(a0, a1, a2, b)
}

// AxpyUnfused computes y[j] += alpha*x[j] with the product rounded
// before the sum (VMULPD then VADDPD), so it gives the scalar loop's bits
// on every family, unlike axpy's fused multiply-add.
func AxpyUnfused(alpha float64, x, y []float64) {
	y = y[:len(x)]
	m := 0
	if useAVX2 && len(x) >= simdMinLen {
		m = len(x) &^ 3
		axpyUnfusedAVX(alpha, &x[0], &y[0], m)
	}
	scalarAxpyUnfused(alpha, x[m:], y[m:])
}

// MomentumStep is one momentum-SGD update of w from gradient g and
// velocity v: v[i] = mu*v[i] + g[i], then w[i] -= lr*v[i]. Every product
// is rounded before its sum, so both families give the scalar loop's
// bits. fresh treats v as cleared without reading it (v[i] = mu*0 + g[i]),
// the first step after an optimizer Reset.
func MomentumStep(w, g, v []float64, mu, lr float64, fresh bool) {
	g, v = g[:len(w)], v[:len(w)]
	m := 0
	if useAVX2 && len(w) >= simdMinLen {
		m = len(w) &^ 3
		momentumAVX(&w[0], &g[0], &v[0], m, mu, lr, fresh)
	}
	scalarMomentum(w[m:], g[m:], v[m:], mu, lr, fresh)
}

// ReluInto computes dst[i] = x[i] if x[i] > 0, else +0, without a
// data-dependent branch: NaN and −0 give +0 like the comparison does.
func ReluInto(dst, x []float64) {
	dst = dst[:len(x)]
	if useAVX2 && len(x) >= simdMinLen {
		m := len(x) &^ 3
		reluAVX(&dst[0], &x[0], m)
		scalarRelu(dst[m:], x[m:])
		return
	}
	scalarRelu(dst, x)
}

// ReluGradInto computes dx[i] = dy[i] where out[i] > 0, else +0; out is
// the output ReluInto produced (out > 0 exactly where its input was).
func ReluGradInto(dx, out, dy []float64) {
	dx = dx[:len(out)]
	dy = dy[:len(out)]
	if useAVX2 && len(out) >= simdMinLen {
		m := len(out) &^ 3
		reluGradAVX(&dx[0], &out[0], &dy[0], m)
		scalarReluGrad(dx[m:], out[m:], dy[m:])
		return
	}
	scalarReluGrad(dx, out, dy)
}

// MaxPool2x2Row pools len(out) non-overlapping 2×2 windows of the input
// rows r0 and r1 (r0[0] is flat input index idx0, r1[0] is idx0+pitch).
// Each window is scanned in row-major order from (−Inf, −1): the first
// strict maximum wins ties, and a window with nothing above −Inf gives
// −Inf and index −1. argmax receives the flat index of each maximum, or
// is nil when only the values are wanted.
func MaxPool2x2Row(out []float64, argmax []int, r0, r1 []float64, idx0, pitch int) {
	n := len(out)
	r0, r1 = r0[:2*n], r1[:2*n]
	m := 0
	if useAVX2 && n >= 4 {
		m = n &^ 3
		var arg *int
		if argmax != nil {
			arg = &argmax[:n][0]
		}
		maxPool2x2RowAVX(&out[0], arg, &r0[0], &r1[0], idx0, pitch, m)
	}
	if m < n {
		if argmax != nil {
			argmax = argmax[m:]
		}
		scalarMaxPool2x2Row(out[m:], argmax, r0[2*m:], r1[2*m:], idx0+2*m, pitch)
	}
}
