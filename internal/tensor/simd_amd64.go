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
func dot2x2AVX(a0, a1, b0, b1 *float64, n int) (s00, s01, s10, s11 float64)

//go:noescape
func dotAVX(x, y *float64, n int) float64

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
