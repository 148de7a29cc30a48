package tensor

import "math"

// Scalar reference kernels for the innermost loops of a training step.
// These are the portable implementations behind the dispatchers (axpy,
// axpy4, axpy4x2, dot2x2, dotVec, dot3x1, AxpyUnfused, MomentumStep,
// ReluInto, ReluGradInto, MaxPool2x2Row); on amd64 with AVX2+FMA the
// dispatchers in simd_amd64.go replace the bulk of the work with vector
// code and fall back to these for tails and small inputs.
//
// axpy-style kernels carry no cross-element reduction: their vector form
// differs from the scalar one only by fusing the multiply-add. dot-style
// kernels also reduce in vector lanes (dot2x2 in 4, dotVec and dot3x1 in
// 16), which reorders the summation. Either way the order is fixed per
// build/CPU and input length, so results are bit-identical across runs on
// the same machine (HasAVX2 tells golden values which family produced
// them). The ReLU and pooling kernels select and never round, and
// AxpyUnfused and MomentumStep round every product before its sum in
// both families (a separate VMULPD and VADDPD/VSUBPD, never an FMA):
// all of these give the same bits on every family.

// scalarAxpy computes y[j] += alpha*x[j].
func scalarAxpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for j, xv := range x {
		y[j] += alpha * xv
	}
}

// scalarAxpyUnfused computes y[j] += alpha*x[j] with the product rounded
// before the sum: the conversion keeps arm64 from fusing it, so every
// family gives the bits of amd64's separate multiply and add.
func scalarAxpyUnfused(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for j, xv := range x {
		y[j] += float64(alpha * xv)
	}
}

// scalarMomentum is one momentum-SGD update, v[i] = mu*v[i] + g[i] and
// then w[i] -= lr*v[i], every product rounded before its sum. fresh reads
// no v: it stands for a cleared velocity, v[i] = mu*0 + g[i], which gives
// a −0 gradient the bits a zeroed v gives it.
func scalarMomentum(w, g, v []float64, mu, lr float64, fresh bool) {
	g, v = g[:len(w)], v[:len(w)]
	if fresh {
		z := float64(mu * 0)
		for i := range w {
			v[i] = z + g[i]
			w[i] -= float64(lr * v[i])
		}
		return
	}
	for i := range w {
		v[i] = float64(mu*v[i]) + g[i]
		w[i] -= float64(lr * v[i])
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

// scalarAxpy4x2 computes cR[j] += avR*b0[j] and then cR[j] += awR*b1[j]:
// two scalarAxpy4 updates in one pass over the four output rows, each
// element rounding in the same order as the two passes would.
func scalarAxpy4x2(av0, av1, av2, av3, aw0, aw1, aw2, aw3 float64, b0, b1, c0, c1, c2, c3 []float64) {
	b1 = b1[:len(b0)]
	c0 = c0[:len(b0)]
	c1 = c1[:len(b0)]
	c2 = c2[:len(b0)]
	c3 = c3[:len(b0)]
	for j, bv := range b0 {
		bw := b1[j]
		c0[j] += av0 * bv
		c0[j] += aw0 * bw
		c1[j] += av1 * bv
		c1[j] += aw1 * bw
		c2[j] += av2 * bv
		c2[j] += aw2 * bw
		c3[j] += av3 * bv
		c3[j] += aw3 * bw
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

// scalarDot3x1 computes the dot products of a0, a1 and a2 with one shared
// b, each summed in scalarDot's order.
func scalarDot3x1(a0, a1, a2, b []float64) (s0, s1, s2 float64) {
	a0 = a0[:len(b)]
	a1 = a1[:len(b)]
	a2 = a2[:len(b)]
	for p, bv := range b {
		s0 += a0[p] * bv
		s1 += a1[p] * bv
		s2 += a2[p] * bv
	}
	return s0, s1, s2
}

// scalarRelu computes dst[i] = x[i] if x[i] > 0, else +0 (so NaN and −0
// give +0).
func scalarRelu(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// scalarReluGrad computes dx[i] = dy[i] where out[i] > 0, else +0.
func scalarReluGrad(dx, out, dy []float64) {
	dx = dx[:len(out)]
	dy = dy[:len(out)]
	for i, v := range out {
		if v > 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

// scalarMaxPool2x2Row pools len(out) 2×2 windows of the input rows r0 and
// r1, scanning each window in row-major order from (−Inf, −1): the first
// strict maximum wins, and a window holding nothing above −Inf (all −Inf
// or NaN) gives −Inf and index −1. r0[0] is flat input index idx0 and r1
// starts pitch elements later; argmax is skipped when nil.
func scalarMaxPool2x2Row(out []float64, argmax []int, r0, r1 []float64, idx0, pitch int) {
	for ox := range out {
		best, bi := math.Inf(-1), -1
		if v := r0[2*ox]; v > best {
			best, bi = v, idx0+2*ox
		}
		if v := r0[2*ox+1]; v > best {
			best, bi = v, idx0+2*ox+1
		}
		if v := r1[2*ox]; v > best {
			best, bi = v, idx0+pitch+2*ox
		}
		if v := r1[2*ox+1]; v > best {
			best, bi = v, idx0+pitch+2*ox+1
		}
		out[ox] = best
		if argmax != nil {
			argmax[ox] = bi
		}
	}
}
