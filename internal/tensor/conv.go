package tensor

import "math"

// Convolution lowering kernels (im2col / col2im). The nn package builds
// Conv2D/Conv1D layers on top of these plus MatMul: a sample's
// convolution is the matrix product
//
//	out_i [OutC, OH*OW] = W [OutC, C*KH*KW] · cols_i [C*KH*KW, OH*OW]
//
// The strided variants below write/read a sample's columns as a block of
// a wider matrix: row r of the block lives at cols[r*rowStride+...]. A
// training step keeps the whole batch's columns in one
// [C*KH*KW, N*OH*OW] matrix for the weight gradient, sample i owning
// columns [i*OH*OW, (i+1)*OH*OW), and MatMulBlockInto multiplies by one
// sample's block of it in place.

// ConvOut returns the output spatial size of a convolution along one axis.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers a single-sample image x (layout [C, H, W], flat slice) to
// a column matrix written into cols, which must have length
// C*KH*KW * OH*OW and is interpreted as [C*KH*KW, OH*OW] row-major.
// Out-of-bounds taps (zero padding) produce zeros.
func Im2Col(x []float64, c, h, w, kh, kw, stride, pad int, cols []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	Im2ColStrided(x, c, h, w, kh, kw, stride, pad, cols, oh*ow)
}

// Im2ColStrided lowers a single-sample image x (layout [C, H, W]) into a
// column block whose row r occupies cols[r*rowStride : r*rowStride+OH*OW].
// Passing the batched matrix offset by the sample's column start and
// rowStride = N*OH*OW places the sample inside the batched layout above.
// Convolutions with stride 1 copy each in-bounds run with copy() instead
// of per-element indexing, and when the output is also as wide as the
// input (every Conv2D in the model zoo) a tap is one copy of the whole
// plane (im2colTapPlane).
func Im2ColStrided(x []float64, c, h, w, kh, kw, stride, pad int, cols []float64, rowStride int) {
	countIm2Col()
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	byPlane := stride == 1 && ow == w
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := cols[row*rowStride : row*rowStride+oh*ow]
				if byPlane {
					im2colTapPlane(dst, x[chBase:chBase+h*w], h, w, oh, ky, kx, pad)
					row++
					continue
				}
				for oy := 0; oy < oh; oy++ {
					drow := dst[oy*ow : (oy+1)*ow]
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						clear(drow)
						continue
					}
					rowBase := chBase + iy*w
					if stride == 1 {
						lo, hi := inBoundsRange(w, ow, pad, kx)
						if hi < lo {
							clear(drow)
							continue
						}
						clear(drow[:lo])
						copy(drow[lo:hi+1], x[rowBase+lo-pad+kx:rowBase+hi+1-pad+kx])
						clear(drow[hi+1:])
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							drow[ox] = 0
						} else {
							drow[ox] = x[rowBase+ix]
						}
					}
				}
				row++
			}
		}
	}
}

// im2colTapPlane writes tap (ky, kx) of one channel plane for a stride-1
// convolution whose output rows are as wide as its input rows (ow == w).
// Output element d = oy*w+ox then reads plane[d+shift] with one shift for
// the whole tap, so the in-bounds elements are a single copy from the
// first to the last of them; what precedes and follows is padding, and so
// are the ≤ pad entries at each row end, where the copy wrapped into the
// neighbouring input row.
func im2colTapPlane(dst, plane []float64, h, w, oh, ky, kx, pad int) {
	lo, hi := inBoundsRange(w, w, pad, kx)
	oyLo, oyHi := inBoundsRange(h, oh, pad, ky)
	if hi < lo || oyHi < oyLo {
		clear(dst)
		return
	}
	shift := (ky-pad)*w + kx - pad
	first, last := oyLo*w+lo, oyHi*w+hi
	clear(dst[:first])
	copy(dst[first:last+1], plane[first+shift:last+1+shift])
	clear(dst[last+1:])
	// Between one output row's last in-bounds column and the next row's
	// first, the copy wrapped around the row end.
	run := hi - lo + 1
	for g := first + run; g < last; g += w {
		for p := g; p < g+w-run; p++ {
			dst[p] = 0
		}
	}
}

// inBoundsRange returns the inclusive output-index range [lo, hi] whose
// stride-1 input taps ix = ox − pad + kx fall inside [0, w). An empty
// range reports hi < lo.
func inBoundsRange(w, ow, pad, kx int) (lo, hi int) {
	lo = pad - kx
	if lo < 0 {
		lo = 0
	}
	hi = w - 1 + pad - kx
	if hi > ow-1 {
		hi = ow - 1
	}
	return lo, hi
}

// Col2Im scatters a column-matrix gradient (layout [C*KH*KW, OH*OW])
// back into an image gradient dx (layout [C, H, W]), accumulating where
// receptive fields overlap. dx must be zeroed by the caller if it should
// not accumulate into existing values. cols is the caller's scratch, as
// in Col2ImStrided.
func Col2Im(cols []float64, c, h, w, kh, kw, stride, pad int, dx []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	Col2ImStrided(cols, c, h, w, kh, kw, stride, pad, dx, oh*ow)
}

// Col2ImStrided is the adjoint of Im2ColStrided: it reads the sample's
// column block (row r at cols[r*rowStride+...]) and accumulates into the
// image gradient dx (layout [C, H, W]). When the convolution has stride
// 1 and an output as wide as its input, a tap is one span added to the
// whole plane (col2imTapPlane), which may set entries of the block that
// map to no input pixel to −0: cols is scratch the caller does not read
// again (Conv2D's dcols).
func Col2ImStrided(cols []float64, c, h, w, kh, kw, stride, pad int, dx []float64, rowStride int) {
	countCol2Im()
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	byPlane := stride == 1 && ow == w
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := cols[row*rowStride : row*rowStride+oh*ow]
				if byPlane {
					col2imTapPlane(src, dx[chBase:chBase+h*w], h, w, oh, ky, kx, pad)
					row++
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					srow := src[oy*ow : (oy+1)*ow]
					rowBase := chBase + iy*w
					if stride == 1 {
						lo, hi := inBoundsRange(w, ow, pad, kx)
						if hi < lo {
							continue
						}
						// fma(1, x, y) rounds once and is x + y: the vector
						// kernel adds the run exactly as a scalar loop does.
						ix := rowBase + lo - pad + kx
						axpy(1, srow[lo:hi+1], dx[ix:ix+hi+1-lo])
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							dx[rowBase+ix] += srow[ox]
						}
					}
				}
				row++
			}
		}
	}
}

// col2imTapPlane is im2colTapPlane's adjoint: it adds tap (ky, kx)'s
// column row src into one channel plane of dx as a single span from the
// first in-bounds element to the last. The span's wrap entries, the
// ≤ pad entries at each row end that belong to no input pixel, are set to
// −0 first. −0 is the exact additive identity, so every dx element gets
// the same sums in the same order as from the row loop, ±0 included.
func col2imTapPlane(src, plane []float64, h, w, oh, ky, kx, pad int) {
	lo, hi := inBoundsRange(w, w, pad, kx)
	oyLo, oyHi := inBoundsRange(h, oh, pad, ky)
	if hi < lo || oyHi < oyLo {
		return
	}
	shift := (ky-pad)*w + kx - pad
	first, last := oyLo*w+lo, oyHi*w+hi
	run := hi - lo + 1
	for g := first + run; g < last; g += w {
		for p := g; p < g+w-run; p++ {
			src[p] = negZero
		}
	}
	axpy(1, src[first:last+1], plane[first+shift:last+1+shift])
}

var negZero = math.Copysign(0, -1)

// Im2Col1D lowers a single-sample sequence x (layout [C, L]) to a column
// matrix cols of layout [C*K, OL].
func Im2Col1D(x []float64, c, l, k, stride, pad int, cols []float64) {
	Im2Col1DStrided(x, c, l, k, stride, pad, cols, ConvOut(l, k, stride, pad))
}

// Im2Col1DStrided lowers a single-sample sequence into a column block
// whose row r occupies cols[r*rowStride : r*rowStride+OL], mirroring
// Im2ColStrided for the batched [C*K, N*OL] layout.
func Im2Col1DStrided(x []float64, c, l, k, stride, pad int, cols []float64, rowStride int) {
	countIm2Col()
	ol := ConvOut(l, k, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * l
		for kx := 0; kx < k; kx++ {
			dst := cols[row*rowStride : row*rowStride+ol]
			if stride == 1 {
				lo, hi := inBoundsRange(l, ol, pad, kx)
				if hi < lo {
					clear(dst)
				} else {
					clear(dst[:lo])
					copy(dst[lo:hi+1], x[chBase+lo-pad+kx:chBase+hi+1-pad+kx])
					clear(dst[hi+1:])
				}
				row++
				continue
			}
			for o := 0; o < ol; o++ {
				ix := o*stride - pad + kx
				if ix < 0 || ix >= l {
					dst[o] = 0
				} else {
					dst[o] = x[chBase+ix]
				}
			}
			row++
		}
	}
}

// Col2Im1D scatters a column-matrix gradient (layout [C*K, OL]) back into
// a sequence gradient dx (layout [C, L]), accumulating overlaps.
func Col2Im1D(cols []float64, c, l, k, stride, pad int, dx []float64) {
	Col2Im1DStrided(cols, c, l, k, stride, pad, dx, ConvOut(l, k, stride, pad))
}

// Col2Im1DStrided is the adjoint of Im2Col1DStrided.
func Col2Im1DStrided(cols []float64, c, l, k, stride, pad int, dx []float64, rowStride int) {
	countCol2Im()
	ol := ConvOut(l, k, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * l
		for kx := 0; kx < k; kx++ {
			src := cols[row*rowStride : row*rowStride+ol]
			if stride == 1 {
				lo, hi := inBoundsRange(l, ol, pad, kx)
				if hi >= lo {
					drow := dx[chBase+lo-pad+kx:]
					for o := lo; o <= hi; o++ {
						drow[o-lo] += src[o]
					}
				}
				row++
				continue
			}
			for o := 0; o < ol; o++ {
				ix := o*stride - pad + kx
				if ix >= 0 && ix < l {
					dx[chBase+ix] += src[o]
				}
			}
			row++
		}
	}
}
