package tensor

import "fmt"

// Matrix-multiplication kernels. All three variants (plain, Aᵀ·B, A·Bᵀ)
// run on the calling goroutine: parallelism lives one level up, across
// devices and evaluation chunks (hfl.Config.Parallelism), and at every
// shape in the model zoo a kernel that fans out is slower than one that
// does not, even with a core idle (DESIGN.md, "Performance
// architecture"). Inside, the kernel is tiled over cache-sized panels of
// the shared dimension and of the output columns, with register blocking
// in the innermost loops — four C rows against two B rows at a time
// (axpy4x2) in the axpy-style kernels, 2×2 or 3×1 dot products in
// MatMulTransB — so every output element's summation order is a function
// of the shapes alone.
const (
	// mmPanelJ bounds the output-column panel so the B panel a row block
	// streams stays cache-resident across its rows.
	mmPanelJ = 512
	// mmPanelK bounds the shared-dimension panel for the same reason.
	mmPanelK = 256
	// transBBlockFlops sizes MatMulTransB's row blocks (transBBlockRows).
	transBBlockFlops = 1 << 16
)

func checkRank2(op string, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.shape, b.shape))
	}
}

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination has shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}

// MatMul computes C = A·B for A of shape [m, k] and B of shape [k, n].
func MatMul(a, b *Tensor) *Tensor {
	return MatMulInto(New(a.shape[0], b.shape[1]), a, b)
}

// MatMulInto computes dst = A·B, overwriting dst (shape [m, n]). It
// performs no allocation, so hot paths can reuse the destination.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	checkRank2("MatMul", a, b)
	k2, n := b.shape[0], b.shape[1]
	if a.shape[1] != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v x %v", a.shape, b.shape))
	}
	checkDst("MatMul", dst, a.shape[0], n)
	MatMulBlockInto(dst.Data, a, b.Data, n)
	return dst
}

// MatMulBlockInto computes dst = A·B for a B that is a column block of a
// wider row-major matrix: row p of B is b[p*ldb : p*ldb+n], with
// n = len(dst)/m (A is [m, k], dst is [m, n] row-major, ldb ≥ n). A
// convolution layer multiplies one sample's im2col columns this way,
// straight into that sample's slice of the output.
func MatMulBlockInto(dst []float64, a *Tensor, b []float64, ldb int) {
	countMatMul()
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulBlockInto requires a rank-2 left operand, got %v", a.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n := len(dst) / m
	if n*m != len(dst) || ldb < n || len(b) < (k-1)*ldb+n {
		panic(fmt.Sprintf("tensor: MatMulBlockInto: %d-element destination and %d-element block of row stride %d do not fit left operand %v",
			len(dst), len(b), ldb, a.shape))
	}
	matmulRows(dst, a.Data, b, m, k, n, ldb)
}

// matmulRows computes the m rows of C = A·B with panel tiling and 4-row
// register blocking; row p of B starts at bd[p*ldb]. Four C rows take
// B's rows in pairs: each C element is loaded and stored once per two
// multiply-adds, applied in the same p order as one row at a time.
func matmulRows(cd, ad, bd []float64, m, k, n, ldb int) {
	for jb := 0; jb < n; jb += mmPanelJ {
		je := min(jb+mmPanelJ, n)
		w := je - jb
		for pb := 0; pb < k; pb += mmPanelK {
			pe := min(pb+mmPanelK, k)
			first := pb == 0
			i := 0
			for ; i+4 <= m; i += 4 {
				c0 := cd[i*n+jb : i*n+jb+w]
				c1 := cd[(i+1)*n+jb : (i+1)*n+jb+w]
				c2 := cd[(i+2)*n+jb : (i+2)*n+jb+w]
				c3 := cd[(i+3)*n+jb : (i+3)*n+jb+w]
				if first {
					clear(c0)
					clear(c1)
					clear(c2)
					clear(c3)
				}
				a0 := ad[i*k+pb : i*k+pe]
				a1 := ad[(i+1)*k+pb : (i+1)*k+pe]
				a2 := ad[(i+2)*k+pb : (i+2)*k+pe]
				a3 := ad[(i+3)*k+pb : (i+3)*k+pe]
				a1 = a1[:len(a0)]
				a2 = a2[:len(a0)]
				a3 = a3[:len(a0)]
				pi := 0
				for ; pi+2 <= len(a0); pi += 2 {
					p := pb + pi
					b0 := bd[p*ldb+jb : p*ldb+jb+w]
					b1 := bd[(p+1)*ldb+jb : (p+1)*ldb+jb+w]
					axpy4x2(a0[pi], a1[pi], a2[pi], a3[pi], a0[pi+1], a1[pi+1], a2[pi+1], a3[pi+1],
						b0, b1, c0, c1, c2, c3)
				}
				if pi < len(a0) {
					p := pb + pi
					axpy4(a0[pi], a1[pi], a2[pi], a3[pi], bd[p*ldb+jb:p*ldb+jb+w], c0, c1, c2, c3)
				}
			}
			for ; i < m; i++ {
				crow := cd[i*n+jb : i*n+jb+w]
				if first {
					clear(crow)
				}
				arow := ad[i*k+pb : i*k+pe]
				for pi, av := range arow {
					if av == 0 {
						continue
					}
					p := pb + pi
					axpy(av, bd[p*ldb+jb:p*ldb+jb+w], crow)
				}
			}
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A of shape [k, m] and B of shape
// [k, n], producing [m, n], without materialising the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	return MatMulTransAInto(New(a.shape[1], b.shape[1]), a, b)
}

// MatMulTransAInto computes dst = Aᵀ·B, overwriting dst (shape [m, n]),
// without allocating.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	countMatMul()
	checkRank2("MatMulTransA", a, b)
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims differ: %v x %v", a.shape, b.shape))
	}
	checkDst("MatMulTransA", dst, m, n)
	matmulTransARows(dst.Data, a.Data, b.Data, m, k, n)
	return dst
}

// matmulTransARows computes the m rows of C = Aᵀ·B. Identical
// structure to matmulRows except the A element for output row i lives at
// the strided address a[p*m+i]; four adjacent output rows read four
// adjacent A elements, so the strided loads still hit one cache line.
func matmulTransARows(cd, ad, bd []float64, m, k, n int) {
	for jb := 0; jb < n; jb += mmPanelJ {
		je := min(jb+mmPanelJ, n)
		w := je - jb
		for pb := 0; pb < k; pb += mmPanelK {
			pe := min(pb+mmPanelK, k)
			first := pb == 0
			i := 0
			for ; i+4 <= m; i += 4 {
				c0 := cd[i*n+jb : i*n+jb+w]
				c1 := cd[(i+1)*n+jb : (i+1)*n+jb+w]
				c2 := cd[(i+2)*n+jb : (i+2)*n+jb+w]
				c3 := cd[(i+3)*n+jb : (i+3)*n+jb+w]
				if first {
					clear(c0)
					clear(c1)
					clear(c2)
					clear(c3)
				}
				p := pb
				for ; p+2 <= pe; p += 2 {
					av := ad[p*m+i : p*m+i+4]
					aw := ad[(p+1)*m+i : (p+1)*m+i+4]
					b0 := bd[p*n+jb : p*n+jb+w]
					b1 := bd[(p+1)*n+jb : (p+1)*n+jb+w]
					axpy4x2(av[0], av[1], av[2], av[3], aw[0], aw[1], aw[2], aw[3], b0, b1, c0, c1, c2, c3)
				}
				if p < pe {
					av := ad[p*m+i : p*m+i+4]
					axpy4(av[0], av[1], av[2], av[3], bd[p*n+jb:p*n+jb+w], c0, c1, c2, c3)
				}
			}
			for ; i < m; i++ {
				crow := cd[i*n+jb : i*n+jb+w]
				if first {
					clear(crow)
				}
				for p := pb; p < pe; p++ {
					av := ad[p*m+i]
					if av == 0 {
						continue
					}
					axpy(av, bd[p*n+jb:p*n+jb+w], crow)
				}
			}
		}
	}
}

// MatMulTransB computes C = A·Bᵀ for A of shape [m, k] and B of shape
// [n, k], producing [m, n], without materialising the transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	return MatMulTransBInto(New(a.shape[0], b.shape[0]), a, b)
}

// MatMulTransBInto computes dst = A·Bᵀ, overwriting dst (shape [m, n]),
// without allocating.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	countMatMul()
	checkRank2("MatMulTransB", a, b)
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims differ: %v x %v", a.shape, b.shape))
	}
	checkDst("MatMulTransB", dst, m, n)
	matmulTransBRows(dst.Data, a.Data, b.Data, m, k, n, transBBlockRows(m, k*n))
	return dst
}

// transBBlockRows is how many output rows MatMulTransB pairs up at a
// time: about transBBlockFlops of work (rowWork = flops per output row),
// at least one row. Unlike in the axpy-style kernels the blocking is part
// of the result: a row that pairs up inside its block reduces through
// dot2x2 and an odd last row through dotVec, whose AVX2 forms sum in 4
// and in 16 lanes. These are the chunks the kernel fanned out to
// goroutines while it had an inner level of parallelism; keeping them
// keeps every model trained since bit for bit.
func transBBlockRows(m, rowWork int) int {
	return min(max(transBBlockFlops/max(rowWork, 1), 1), m)
}

// matmulTransBRows computes the m rows of C = A·Bᵀ in blocks of g rows:
// every output element is a length-k dot product, tiled over k panels
// with 2×2 register blocking inside a row block so each loaded A/B panel
// element feeds two accumulating products. The panel loop is outermost,
// so a B panel is read from memory once and serves every row from cache.
// One-row blocks have their own loop order (matmulTransBSingleRows).
func matmulTransBRows(cd, ad, bd []float64, m, k, n, g int) {
	if g == 1 {
		matmulTransBSingleRows(cd, ad, bd, m, k, n)
		return
	}
	for kb := 0; kb < k; kb += mmPanelK {
		ke := min(kb+mmPanelK, k)
		first := kb == 0
		for lo := 0; lo < m; lo += g {
			hi := min(lo+g, m)
			i := lo
			for ; i+2 <= hi; i += 2 {
				a0 := ad[i*k+kb : i*k+ke]
				a1 := ad[(i+1)*k+kb : (i+1)*k+ke]
				c0 := cd[i*n : (i+1)*n]
				c1 := cd[(i+1)*n : (i+2)*n]
				if first {
					clear(c0)
					clear(c1)
				}
				j := 0
				for ; j+2 <= n; j += 2 {
					b0 := bd[j*k+kb : j*k+ke]
					b1 := bd[(j+1)*k+kb : (j+1)*k+ke]
					s00, s01, s10, s11 := dot2x2(a0, a1, b0, b1)
					c0[j] += s00
					c0[j+1] += s01
					c1[j] += s10
					c1[j+1] += s11
				}
				for ; j < n; j++ {
					b0 := bd[j*k+kb : j*k+ke]
					c0[j] += dotVec(a0, b0)
					c1[j] += dotVec(a1, b0)
				}
			}
			for ; i < hi; i++ {
				arow := ad[i*k+kb : i*k+ke]
				crow := cd[i*n : (i+1)*n]
				if first {
					clear(crow)
				}
				for j := 0; j < n; j++ {
					crow[j] += dotVec(arow, bd[j*k+kb:j*k+ke])
				}
			}
		}
	}
}

// matmulTransBSingleRows is matmulTransBRows for one-row blocks (every
// conv dW and Linear's dX): no row pairs up, so every output element is
// its own dotVec product per k panel and the loop order is free. B's
// panel row goes outermost — it is read once per panel instead of once
// per A row — and dot3x1 takes three A rows against it, each product
// summed exactly as dotVec sums it.
func matmulTransBSingleRows(cd, ad, bd []float64, m, k, n int) {
	clear(cd[:m*n])
	for kb := 0; kb < k; kb += mmPanelK {
		ke := min(kb+mmPanelK, k)
		for j := 0; j < n; j++ {
			brow := bd[j*k+kb : j*k+ke]
			i := 0
			for ; i+3 <= m; i += 3 {
				s0, s1, s2 := dot3x1(ad[i*k+kb:i*k+ke], ad[(i+1)*k+kb:(i+1)*k+ke], ad[(i+2)*k+kb:(i+2)*k+ke], brow)
				cd[i*n+j] += s0
				cd[(i+1)*n+j] += s1
				cd[(i+2)*n+j] += s2
			}
			for ; i < m; i++ {
				cd[i*n+j] += dotVec(ad[i*k+kb:i*k+ke], brow)
			}
		}
	}
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank 2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}
