package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// Bit-identity tests for the kernels of a training step. Each compares
// the production kernel with the loop it replaced — kept here as the
// reference — bit for bit, under every kernel family this box can run
// (forEachKernelFamily), so "same bits" does not rest on the golden
// hashes alone.

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

var kernelLens = []int{1, 3, 4, 7, 8, 15, 16, 17, 33, 100, 256, 3136}

func TestAxpy4x2MatchesTwoAxpy4(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(31)
		for _, n := range kernelLens {
			av := randTensor(rng, 4).Data
			aw := randTensor(rng, 4).Data
			b0, b1 := randTensor(rng, n).Data, randTensor(rng, n).Data
			var got, want [4][]float64
			for r := range got {
				got[r] = randTensor(rng, n).Data
				want[r] = append([]float64(nil), got[r]...)
			}
			axpy4x2(av[0], av[1], av[2], av[3], aw[0], aw[1], aw[2], aw[3], b0, b1, got[0], got[1], got[2], got[3])
			axpy4(av[0], av[1], av[2], av[3], b0, want[0], want[1], want[2], want[3])
			axpy4(aw[0], aw[1], aw[2], aw[3], b1, want[0], want[1], want[2], want[3])
			for r := range got {
				if i := sameBits(got[r], want[r]); i >= 0 {
					t.Errorf("n=%d row %d element %d: %v, two axpy4 calls give %v", n, r, i, got[r][i], want[r][i])
				}
			}
		}
	})
}

func TestDot3x1MatchesThreeDotVec(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(37)
		for _, n := range kernelLens {
			a0, a1, a2 := randTensor(rng, n).Data, randTensor(rng, n).Data, randTensor(rng, n).Data
			b := randTensor(rng, n).Data
			s0, s1, s2 := dot3x1(a0, a1, a2, b)
			got := []float64{s0, s1, s2}
			want := []float64{dotVec(a0, b), dotVec(a1, b), dotVec(a2, b)}
			if i := sameBits(got, want); i >= 0 {
				t.Errorf("n=%d product %d: %v, dotVec gives %v", n, i, got[i], want[i])
			}
		}
	})
}

// refMatmulRows is matmulRows as it was before B's rows were taken two at
// a time: one axpy4 per row of B.
func refMatmulRows(cd, ad, bd []float64, m, k, n, ldb int) {
	for jb := 0; jb < n; jb += mmPanelJ {
		w := min(jb+mmPanelJ, n) - jb
		for pb := 0; pb < k; pb += mmPanelK {
			pe := min(pb+mmPanelK, k)
			i := 0
			for ; i+4 <= m; i += 4 {
				var c [4][]float64
				for r := range c {
					c[r] = cd[(i+r)*n+jb : (i+r)*n+jb+w]
					if pb == 0 {
						clear(c[r])
					}
				}
				for p := pb; p < pe; p++ {
					axpy4(ad[i*k+p], ad[(i+1)*k+p], ad[(i+2)*k+p], ad[(i+3)*k+p],
						bd[p*ldb+jb:p*ldb+jb+w], c[0], c[1], c[2], c[3])
				}
			}
			for ; i < m; i++ {
				crow := cd[i*n+jb : i*n+jb+w]
				if pb == 0 {
					clear(crow)
				}
				for p := pb; p < pe; p++ {
					if av := ad[i*k+p]; av != 0 {
						axpy(av, bd[p*ldb+jb:p*ldb+jb+w], crow)
					}
				}
			}
		}
	}
}

// refMatmulTransARows is the same for C = Aᵀ·B (A is [k, m]).
func refMatmulTransARows(cd, ad, bd []float64, m, k, n int) {
	for jb := 0; jb < n; jb += mmPanelJ {
		w := min(jb+mmPanelJ, n) - jb
		for pb := 0; pb < k; pb += mmPanelK {
			pe := min(pb+mmPanelK, k)
			i := 0
			for ; i+4 <= m; i += 4 {
				var c [4][]float64
				for r := range c {
					c[r] = cd[(i+r)*n+jb : (i+r)*n+jb+w]
					if pb == 0 {
						clear(c[r])
					}
				}
				for p := pb; p < pe; p++ {
					axpy4(ad[p*m+i], ad[p*m+i+1], ad[p*m+i+2], ad[p*m+i+3],
						bd[p*n+jb:p*n+jb+w], c[0], c[1], c[2], c[3])
				}
			}
			for ; i < m; i++ {
				crow := cd[i*n+jb : i*n+jb+w]
				if pb == 0 {
					clear(crow)
				}
				for p := pb; p < pe; p++ {
					if av := ad[p*m+i]; av != 0 {
						axpy(av, bd[p*n+jb:p*n+jb+w], crow)
					}
				}
			}
		}
	}
}

func TestMatMulMatchesRowAtATimeKernel(t *testing.T) {
	ks := []int{1, 2, 25, 200, 256, 257, 513}
	ms := []int{1, 3, 4, 8, 16, 17}
	ns := []int{5, 8, 196, 197, 784}
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(41)
		for _, k := range ks {
			for _, m := range ms {
				for _, n := range ns {
					a := randTensor(rng, m, k)
					a.Data[rng.Intn(len(a.Data))] = 0 // the leftover rows skip zero coefficients
					b := randTensor(rng, k, n)
					name := fmt.Sprintf("m=%d k=%d n=%d", m, k, n)
					want := make([]float64, m*n)

					got := New(m, n)
					fill(got, math.NaN())
					MatMulInto(got, a, b)
					refMatmulRows(want, a.Data, b.Data, m, k, n, n)
					if i := sameBits(got.Data, want); i >= 0 {
						t.Fatalf("MatMulInto %s: element %d is %v, want %v", name, i, got.Data[i], want[i])
					}

					// B as the second of three column blocks of a wider matrix.
					ldb := 3 * n
					wide := randTensor(rng, k, ldb)
					fill(got, math.NaN())
					MatMulBlockInto(got.Data, a, wide.Data[n:], ldb)
					refMatmulRows(want, a.Data, wide.Data[n:], m, k, n, ldb)
					if i := sameBits(got.Data, want); i >= 0 {
						t.Fatalf("MatMulBlockInto %s: element %d is %v, want %v", name, i, got.Data[i], want[i])
					}

					at := Transpose2D(a)
					fill(got, math.NaN())
					MatMulTransAInto(got, at, b)
					refMatmulTransARows(want, at.Data, b.Data, m, k, n)
					if i := sameBits(got.Data, want); i >= 0 {
						t.Fatalf("MatMulTransAInto %s: element %d is %v, want %v", name, i, got.Data[i], want[i])
					}
				}
			}
		}
	})
}

// refMatmulTransBRows is matmulTransBRows as it was before one-row blocks
// got their own loop order: blocks of g rows, A row outermost inside a
// panel, dot2x2 for rows that pair up and dotVec for the rest.
func refMatmulTransBRows(cd, ad, bd []float64, m, k, n, g int) {
	for kb := 0; kb < k; kb += mmPanelK {
		ke := min(kb+mmPanelK, k)
		for lo := 0; lo < m; lo += g {
			hi := min(lo+g, m)
			i := lo
			for ; i+2 <= hi; i += 2 {
				a0, a1 := ad[i*k+kb:i*k+ke], ad[(i+1)*k+kb:(i+1)*k+ke]
				c0, c1 := cd[i*n:(i+1)*n], cd[(i+1)*n:(i+2)*n]
				if kb == 0 {
					clear(c0)
					clear(c1)
				}
				j := 0
				for ; j+2 <= n; j += 2 {
					s00, s01, s10, s11 := dot2x2(a0, a1, bd[j*k+kb:j*k+ke], bd[(j+1)*k+kb:(j+1)*k+ke])
					c0[j] += s00
					c0[j+1] += s01
					c1[j] += s10
					c1[j+1] += s11
				}
				for ; j < n; j++ {
					c0[j] += dotVec(a0, bd[j*k+kb:j*k+ke])
					c1[j] += dotVec(a1, bd[j*k+kb:j*k+ke])
				}
			}
			for ; i < hi; i++ {
				crow := cd[i*n : (i+1)*n]
				if kb == 0 {
					clear(crow)
				}
				for j := 0; j < n; j++ {
					crow[j] += dotVec(ad[i*k+kb:i*k+ke], bd[j*k+kb:j*k+ke])
				}
			}
		}
	}
}

func TestMatMulTransBMatchesBlockedKernel(t *testing.T) {
	type shape struct{ m, k, n int }
	// The training step's one-row-block products: conv2 and conv1 dW at
	// batch 16, Linear(784, 64)'s dX; then every small m at a k with a
	// ragged last panel and vector tail.
	shapes := []shape{{16, 3136, 200}, {8, 12544, 25}, {16, 64, 784}}
	for _, m := range []int{1, 2, 3, 4, 8, 16} {
		shapes = append(shapes, shape{m, 1027, 67})
	}
	// Blocks of two and more rows keep the loop they had: the second
	// Linear's dX (one 16-row block) and a shape with 5-row blocks.
	shapes = append(shapes, shape{16, 26, 64}, shape{13, 300, 40})
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(43)
		sawOne, sawMore := false, false
		for _, sh := range shapes {
			g := transBBlockRows(sh.m, sh.k*sh.n)
			sawOne, sawMore = sawOne || g == 1, sawMore || g >= 2
			a := randTensor(rng, sh.m, sh.k)
			b := randTensor(rng, sh.n, sh.k)
			got := New(sh.m, sh.n)
			fill(got, math.NaN())
			MatMulTransBInto(got, a, b)
			want := make([]float64, sh.m*sh.n)
			refMatmulTransBRows(want, a.Data, b.Data, sh.m, sh.k, sh.n, g)
			if i := sameBits(got.Data, want); i >= 0 {
				t.Errorf("%+v (blocks of %d rows): element %d is %v, want %v", sh, g, i, got.Data[i], want[i])
			}
		}
		if !sawOne || !sawMore {
			t.Fatalf("shapes cover one-row blocks: %v, larger blocks: %v; want both", sawOne, sawMore)
		}
	})
}

// saltedValues returns n values that are mostly noise, with the inputs a
// compare-and-select kernel can get wrong mixed in: NaN, ±Inf, ±0,
// subnormals, and runs of equal neighbours.
func saltedValues(rng *RNG, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2e-308, -2.2e-308, 1, 1, -1, -1}
	v := make([]float64, n)
	for i := range v {
		switch {
		case rng.Intn(3) == 0:
			v[i] = special[rng.Intn(len(special))]
		case i > 0 && rng.Intn(4) == 0:
			v[i] = v[i-1]
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func TestReluKernelsMatchScalarLoops(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(47)
		for n := 1; n <= 19; n++ {
			for rep := 0; rep < 20; rep++ {
				x := saltedValues(rng, n)
				got, want := make([]float64, n), make([]float64, n)
				ReluInto(got, x)
				for i, v := range x {
					if v > 0 {
						want[i] = v
					} else {
						want[i] = 0
					}
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("ReluInto n=%d: relu(%v) = %v (bits %#x), want %v", n, x[i], got[i], math.Float64bits(got[i]), want[i])
				}
				// The gradient keys on the output just computed, and must
				// pass every dy through untouched, NaN payloads included.
				dy := saltedValues(rng, n)
				dx, wantDx := make([]float64, n), make([]float64, n)
				ReluGradInto(dx, got, dy)
				for i, v := range x {
					if v > 0 {
						wantDx[i] = dy[i]
					} else {
						wantDx[i] = 0
					}
				}
				if i := sameBits(dx, wantDx); i >= 0 {
					t.Fatalf("ReluGradInto n=%d: x=%v dy=%v gives %v, want %v", n, x[i], dy[i], dx[i], wantDx[i])
				}
			}
		}
	})
}

func TestMaxPool2x2RowMatchesScalarLoop(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(53)
		for ow := 1; ow <= 19; ow++ {
			for rep := 0; rep < 40; rep++ {
				pitch := 2*ow + rep%2 // an odd width leaves a last column unpooled
				idx0 := rng.Intn(1000)
				rows := saltedValues(rng, 2*pitch)
				if rep%5 == 0 { // whole windows of −Inf: argmax −1
					for i := range rows {
						if rng.Intn(2) == 0 {
							rows[i] = math.Inf(-1)
						}
					}
				}
				r0, r1 := rows[:pitch], rows[pitch:]
				want, wantArg := make([]float64, ow), make([]int, ow)
				for ox := range want {
					best, bi := math.Inf(-1), -1
					for ky, r := range [][]float64{r0, r1} {
						for kx := 0; kx < 2; kx++ {
							if v := r[2*ox+kx]; v > best {
								best, bi = v, idx0+ky*pitch+2*ox+kx
							}
						}
					}
					want[ox], wantArg[ox] = best, bi
				}
				got, gotArg := make([]float64, ow), make([]int, ow)
				MaxPool2x2Row(got, gotArg, r0, r1, idx0, pitch)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("ow=%d: output %d of rows %v / %v is %v, want %v", ow, i, r0, r1, got[i], want[i])
				}
				for i := range wantArg {
					if gotArg[i] != wantArg[i] {
						t.Fatalf("ow=%d: argmax %d of rows %v / %v is %d, want %d", ow, i, r0, r1, gotArg[i], wantArg[i])
					}
				}
				// Evaluation asks for the values alone.
				clear(got)
				MaxPool2x2Row(got, nil, r0, r1, idx0, pitch)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("ow=%d without argmax: output %d is %v, want %v", ow, i, got[i], want[i])
				}
			}
		}
	})
}

// naiveCol2Im is the adjoint of naiveIm2Col: it walks every output tap in
// (channel, ky, kx, oy, ox) order and adds into dx.
func naiveCol2Im(cols []float64, c, h, w, kh, kw, stride, pad int, dx []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	row := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dx[ch*h*w+iy*w+ix] += cols[row*oh*ow+oy*ow+ox]
						}
					}
				}
				row++
			}
		}
	}
}

// TestCol2ImByPlaneMatchesRowLoop pins the whole-plane scatter of a
// stride-1 convolution whose output is as wide as its input: into a dx
// that already holds ±0 and ordinary values, it adds the same bits,
// zeros' signs included, as the loop over every in-bounds tap, and the
// only entries of cols it writes are ones that map to no input pixel,
// which it sets to −0.
func TestCol2ImByPlaneMatchesRowLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	signedZeros := func(rng *RNG, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(3) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = negZero
			default:
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(61)
		for _, k := range []int{1, 3, 5, 7} {
			pad := (k - 1) / 2
			for _, hw := range [][2]int{{14, 14}, {9, 12}, {12, 9}, {3, 3}, {1, 5}} {
				const c = 3
				h, w := hw[0], hw[1]
				name := fmt.Sprintf("k=%d pad=%d plane=%dx%d", k, pad, h, w)
				ohw := ConvOut(h, k, 1, pad) * ConvOut(w, k, 1, pad)
				if ohw != h*w {
					t.Fatalf("%s: output %d, want the input's %d", name, ohw, h*w)
				}
				cols := signedZeros(rng, c*k*k*ohw)
				dx := signedZeros(rng, c*h*w)
				orig, wantDx := slices.Clone(cols), slices.Clone(dx)
				Col2Im(cols, c, h, w, k, k, 1, pad, dx)
				naiveCol2Im(orig, c, h, w, k, k, 1, pad, wantDx)
				if i := sameBits(dx, wantDx); i >= 0 {
					t.Fatalf("%s: dx[%d] is %v, want %v", name, i, dx[i], wantDx[i])
				}
				for r := 0; r < c*k*k; r++ {
					ky, kx := r/k%k, r%k
					for d := 0; d < ohw; d++ {
						i := r*ohw + d
						if math.Float64bits(cols[i]) == math.Float64bits(orig[i]) {
							continue
						}
						iy, ix := d/w-pad+ky, d%w-pad+kx
						if math.Float64bits(cols[i]) != math.Float64bits(negZero) || iy >= 0 && iy < h && ix >= 0 && ix < w {
							t.Fatalf("%s: cols[%d] (input %d,%d) changed to %v", name, i, iy, ix, cols[i])
						}
					}
				}
			}
		}
	})
}

func TestLoweringMatchesNaiveBitForBit(t *testing.T) {
	planes := [][2]int{{9, 12}, {12, 9}, {8, 8}, {7, 15}}
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(59)
		byPlane, byRow := 0, 0
		for _, k := range []int{1, 3, 5, 7} {
			for pad := 0; pad < k; pad++ {
				for _, stride := range []int{1, 2} {
					for _, hw := range planes {
						h, w := hw[0], hw[1]
						const c = 2
						oh, ow := ConvOut(h, k, stride, pad), ConvOut(w, k, stride, pad)
						if stride == 1 && ow == w {
							byPlane++
						} else {
							byRow++
						}
						name := fmt.Sprintf("k=%d pad=%d stride=%d plane=%dx%d", k, pad, stride, h, w)
						ohw, ckk := oh*ow, c*k*k
						x := saltedValues(rng, c*h*w)
						want := naiveIm2Col(x, c, h, w, k, k, stride, pad)

						// The sample is the middle third of a batched matrix.
						rowStride := 3 * ohw
						cols := make([]float64, ckk*rowStride)
						for i := range cols {
							cols[i] = math.NaN()
						}
						Im2ColStrided(x, c, h, w, k, k, stride, pad, cols[ohw:], rowStride)
						for r := 0; r < ckk; r++ {
							got := cols[r*rowStride+ohw : r*rowStride+2*ohw]
							if i := sameBits(got, want[r*ohw:(r+1)*ohw]); i >= 0 {
								t.Fatalf("Im2ColStrided %s: row %d column %d is %v, want %v", name, r, i, got[i], want[r*ohw+i])
							}
							for _, v := range cols[r*rowStride : r*rowStride+ohw] {
								if !math.IsNaN(v) {
									t.Fatalf("Im2ColStrided %s: wrote left of its column block", name)
								}
							}
							for _, v := range cols[r*rowStride+2*ohw : (r+1)*rowStride] {
								if !math.IsNaN(v) {
									t.Fatalf("Im2ColStrided %s: wrote right of its column block", name)
								}
							}
						}

						// Col2Im into a dx that already holds values.
						g := randTensor(rng, ckk*ohw).Data
						gWide := make([]float64, ckk*rowStride)
						for r := 0; r < ckk; r++ {
							copy(gWide[r*rowStride+ohw:], g[r*ohw:(r+1)*ohw])
						}
						dx := randTensor(rng, c*h*w).Data
						wantDx := append([]float64(nil), dx...)
						Col2ImStrided(gWide[ohw:], c, h, w, k, k, stride, pad, dx, rowStride)
						naiveCol2Im(g, c, h, w, k, k, stride, pad, wantDx)
						if i := sameBits(dx, wantDx); i >= 0 {
							t.Fatalf("Col2ImStrided %s: dx[%d] is %v, want %v", name, i, dx[i], wantDx[i])
						}
					}
				}
			}
		}
		if byPlane == 0 || byRow == 0 {
			t.Fatalf("%d geometries lowered by plane, %d by row; want both", byPlane, byRow)
		}
	})
}
