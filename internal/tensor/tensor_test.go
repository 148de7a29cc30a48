package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Size(); got != 24 {
		t.Fatalf("Size = %d, want 24", got)
	}
	if got := x.Rank(); got != 3 {
		t.Fatalf("Rank = %d, want 3", got)
	}
	s := x.Shape()
	if s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("Shape = %v, want [2 3 4]", s)
	}
	// Shape must be a copy.
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatal("Shape() leaked internal slice")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data[5] != 7 {
		t.Fatalf("Set(1,2) wrote to wrong slot: %v", x.Data)
	}
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of bounds did not panic")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestEnsureReusesStorage(t *testing.T) {
	a := Ensure(nil, 4, 3)
	if a.Dim(0) != 4 || a.Dim(1) != 3 || a.Size() != 12 {
		t.Fatalf("Ensure(nil, 4, 3) has shape %v", a.Shape())
	}
	if Ensure(a, 4, 3) != a {
		t.Fatal("same shape did not return the tensor itself")
	}
	small := Ensure(a, 2, 3)
	if small.Size() != 6 || small.Dim(0) != 2 || &small.Data[0] != &a.Data[0] {
		t.Fatalf("smaller shape %v does not sit at the front of the same storage", small.Shape())
	}
	if back := Ensure(small, 3, 4); back.Size() != 12 || back.Dim(1) != 4 || &back.Data[0] != &a.Data[0] {
		t.Fatal("growing back within capacity did not reuse the storage")
	}
	if big := Ensure(small, 5, 3); big.Size() != 15 || &big.Data[0] == &a.Data[0] {
		t.Fatal("a shape beyond capacity did not get storage of its own")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("Reshape misordered data: %v", y)
	}
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong size did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := Add(a, b); !got.Equal(FromSlice([]float64{11, 22, 33}, 3), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromSlice([]float64{9, 18, 27}, 3), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a); !got.Equal(FromSlice([]float64{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	c.AddScaledInPlace(0.5, b)
	if !c.Equal(FromSlice([]float64{6, 12, 18}, 3), 1e-12) {
		t.Fatalf("AddScaledInPlace = %v", c)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1.75 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("Max/Min = %v/%v", x.Max(), x.Min())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v, want [1 0]", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 1, 1, 1000, 0, 0}, 2, 3)
	s := SoftmaxRowsInto(New(2, 3), x)
	for r := 0; r < 2; r++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			sum += s.At(r, c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	if math.Abs(s.At(0, 0)-1.0/3) > 1e-9 {
		t.Fatalf("uniform row got %v", s.At(0, 0))
	}
	// Large logits must not overflow.
	if s.At(1, 0) < 0.999 {
		t.Fatalf("peaked row got %v", s.At(1, 0))
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {33, 17, 29}, {64, 64, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		r.FillNormal(a, 0, 1)
		r.FillNormal(b, 0, 1)
		want := naiveMatMul(a, b)
		if got := MatMul(a, b); !got.Equal(want, 1e-9) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
		if got := MatMulTransA(Transpose2D(a), b); !got.Equal(want, 1e-9) {
			t.Fatalf("MatMulTransA mismatch at dims %v", dims)
		}
		if got := MatMulTransB(a, Transpose2D(b)); !got.Equal(want, 1e-9) {
			t.Fatalf("MatMulTransB mismatch at dims %v", dims)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose2D(x)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("shape %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose2D wrong: %v", y)
	}
}

func TestConvOut(t *testing.T) {
	if got := ConvOut(28, 5, 1, 2); got != 28 {
		t.Fatalf("same-pad ConvOut = %d", got)
	}
	if got := ConvOut(28, 5, 1, 0); got != 24 {
		t.Fatalf("valid ConvOut = %d", got)
	}
	if got := ConvOut(28, 2, 2, 0); got != 14 {
		t.Fatalf("strided ConvOut = %d", got)
	}
}

// TestIm2ColKnown checks one small lowering by hand.
func TestIm2ColKnown(t *testing.T) {
	// x is a 1x3x3 image: 1..9.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	// 2x2 kernel, stride 1, no pad => 2x2 output, 4 rows.
	cols := make([]float64, 4*4)
	Im2Col(x, 1, 3, 3, 2, 2, 1, 0, cols)
	want := []float64{
		1, 2, 4, 5, // tap (0,0)
		2, 3, 5, 6, // tap (0,1)
		4, 5, 7, 8, // tap (1,0)
		5, 6, 8, 9, // tap (1,1)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols[%d] = %v, want %v\n got %v", i, cols[i], want[i], cols)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	// 1x2x2 image, 3x3 kernel, stride 1, pad 1 => 2x2 output.
	cols := make([]float64, 9*4)
	Im2Col(x, 1, 2, 2, 3, 3, 1, 1, cols)
	// Center tap (ky=1,kx=1) sees the image unshifted.
	center := cols[4*4 : 5*4]
	for i, want := range []float64{1, 2, 3, 4} {
		if center[i] != want {
			t.Fatalf("center tap = %v", center)
		}
	}
	// Top-left tap (ky=0,kx=0) sees only x[3]=4 shifted into the last slot? No:
	// output (oy,ox)=(1,1) reads input (0,0)=1.
	tl := cols[0:4]
	if tl[0] != 0 || tl[1] != 0 || tl[2] != 0 || tl[3] != 1 {
		t.Fatalf("top-left tap = %v", tl)
	}
}

// TestCol2ImAdjoint verifies that Col2Im is the adjoint of Im2Col:
// ⟨Im2Col(x), c⟩ == ⟨x, Col2Im(c)⟩ for random x and c. This is the exact
// property backprop through convolution relies on.
func TestCol2ImAdjoint(t *testing.T) {
	r := NewRNG(7)
	cases := []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 5, 5, 3, 3, 1, 1},
		{2, 6, 7, 3, 2, 1, 0},
		{3, 8, 8, 5, 5, 1, 2},
		{2, 9, 9, 3, 3, 2, 1},
	}
	for _, cs := range cases {
		oh := ConvOut(cs.h, cs.kh, cs.stride, cs.pad)
		ow := ConvOut(cs.w, cs.kw, cs.stride, cs.pad)
		nx := cs.c * cs.h * cs.w
		nc := cs.c * cs.kh * cs.kw * oh * ow
		x := make([]float64, nx)
		cvec := make([]float64, nc)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range cvec {
			cvec[i] = r.NormFloat64()
		}
		cols := make([]float64, nc)
		Im2Col(x, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad, cols)
		dx := make([]float64, nx)
		Col2Im(cvec, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad, dx)
		lhs, rhs := 0.0, 0.0
		for i := range cols {
			lhs += cols[i] * cvec[i]
		}
		for i := range x {
			rhs += x[i] * dx[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint mismatch for %+v: %v vs %v", cs, lhs, rhs)
		}
	}
}

func TestCol2Im1DAdjoint(t *testing.T) {
	r := NewRNG(11)
	cases := []struct{ c, l, k, stride, pad int }{
		{1, 16, 3, 1, 1},
		{2, 40, 5, 2, 2},
		{3, 17, 7, 3, 0},
	}
	for _, cs := range cases {
		ol := ConvOut(cs.l, cs.k, cs.stride, cs.pad)
		nx := cs.c * cs.l
		nc := cs.c * cs.k * ol
		x := make([]float64, nx)
		cvec := make([]float64, nc)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range cvec {
			cvec[i] = r.NormFloat64()
		}
		cols := make([]float64, nc)
		Im2Col1D(x, cs.c, cs.l, cs.k, cs.stride, cs.pad, cols)
		dx := make([]float64, nx)
		Col2Im1D(cvec, cs.c, cs.l, cs.k, cs.stride, cs.pad, dx)
		lhs, rhs := 0.0, 0.0
		for i := range cols {
			lhs += cols[i] * cvec[i]
		}
		for i := range x {
			rhs += x[i] * dx[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("1D adjoint mismatch for %+v: %v vs %v", cs, lhs, rhs)
		}
	}
}

func TestRNGSplitIsStable(t *testing.T) {
	a1 := Split(42, 7).Float64()
	a2 := Split(42, 7).Float64()
	if a1 != a2 {
		t.Fatal("Split not deterministic")
	}
	b := Split(42, 8).Float64()
	if a1 == b {
		t.Fatal("Split children not decorrelated (same first draw)")
	}
}

func TestXavierUniformBounds(t *testing.T) {
	r := NewRNG(3)
	w := New(100, 100)
	r.XavierUniform(w, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range w.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier sample %v outside ±%v", v, limit)
		}
	}
}

func TestHeNormalStd(t *testing.T) {
	r := NewRNG(5)
	w := New(200, 200)
	r.HeNormal(w, 200)
	std := math.Sqrt(2.0 / 200.0)
	var s, s2 float64
	for _, v := range w.Data {
		s += v
		s2 += v * v
	}
	n := float64(w.Size())
	mean := s / n
	variance := s2/n - mean*mean
	if math.Abs(mean) > 0.01 || math.Abs(math.Sqrt(variance)-std) > 0.01 {
		t.Fatalf("He init mean %v std %v, want 0 / %v", mean, math.Sqrt(variance), std)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("Equal ignored shape")
	}
	if New(2).Equal(New(2, 1), 1) {
		t.Fatal("Equal ignored rank")
	}
}

func TestFullAndFillZero(t *testing.T) {
	x := Full(7, 2, 2)
	for _, v := range x.Data {
		if v != 7 {
			t.Fatalf("Full = %v", x.Data)
		}
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

// fill sets every element of x to v.
func fill(x *Tensor, v float64) {
	for i := range x.Data {
		x.Data[i] = v
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("empty String for big tensor")
	}
}

func TestMatMulTransPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"transA dims": func() { MatMulTransA(New(3, 2), New(4, 5)) },
		"transB dims": func() { MatMulTransB(New(2, 3), New(5, 4)) },
		"transA rank": func() { MatMulTransA(New(3), New(3, 2)) },
		"transB rank": func() { MatMulTransB(New(2, 3), New(3)) },
		"transpose":   func() { Transpose2D(New(2)) },
		"softmax":     func() { SoftmaxRowsInto(New(2), New(2)) },
		"softmax dst": func() { SoftmaxRowsInto(New(2, 4), New(2, 3)) },
		"argmax":      func() { New(2).ArgMaxRows() },
		"dot":         func() { Dot(New(2), New(3)) },
		"add":         func() { New(2).AddInPlace(New(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFillUniformRange(t *testing.T) {
	r := NewRNG(9)
	x := New(1000)
	r.FillUniform(x, -2, 3)
	for _, v := range x.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform sample %v outside [-2, 3)", v)
		}
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	r := NewRNG(2)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// TestReseedMatchesSplit: a generator re-seeded in place is the generator
// Split returns for the same (seed, id) — the first 1,000 draws of each
// kind agree — however much it had drawn before.
func TestReseedMatchesSplit(t *testing.T) {
	r := NewRNG(99)
	for pair := int64(0); pair < 100; pair++ {
		seed, id := pair*7919-50, pair*1_000_003+pair%3
		for kind := 0; kind < 3; kind++ {
			want := Split(seed, id)
			r.Reseed(seed, id)
			for i := 0; i < 1000; i++ {
				var got, exp float64
				switch kind {
				case 0:
					got, exp = r.Float64(), want.Float64()
				case 1:
					got, exp = float64(r.Intn(i+1)), float64(want.Intn(i+1))
				case 2:
					got, exp = r.NormFloat64(), want.NormFloat64()
				}
				if got != exp {
					t.Fatalf("Reseed(%d, %d): draw %d of kind %d is %v, Split's is %v", seed, id, i, kind, got, exp)
				}
			}
		}
	}
}

// TestMatMulBlockIntoMatchesMatMulInto: multiplying by a column block of
// a wider matrix in place gives, bit for bit, the product with the block
// copied out — across column and shared-dimension panels, the 4-row
// blocks and the rows after them, and a vector tail.
func TestMatMulBlockIntoMatchesMatMulInto(t *testing.T) {
	rng := NewRNG(21)
	for _, tc := range []struct{ m, k, n, ldb, off int }{
		{5, 300, 603, 2000, 701},
		{8, 25, 784, 784 * 3, 784},
		{3, 7, 5, 9, 2},
		{4, 16, 64, 64, 0},
	} {
		a, wide := New(tc.m, tc.k), New(tc.k, tc.ldb)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(wide, 0, 1)
		a.Data[tc.k+1] = 0 // the single-row path skips zero multipliers
		block := New(tc.k, tc.n)
		for p := 0; p < tc.k; p++ {
			copy(block.Data[p*tc.n:(p+1)*tc.n], wide.Data[p*tc.ldb+tc.off:])
		}
		want := MatMul(a, block)
		got := make([]float64, tc.m*tc.n)
		for i := range got {
			got[i] = math.NaN() // the product overwrites, never accumulates
		}
		MatMulBlockInto(got, a, wide.Data[tc.off:], tc.ldb)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%+v: element %d is %v, MatMulInto gives %v", tc, i, got[i], want.Data[i])
			}
		}
	}
	for name, bad := range map[string]func(){
		"ragged destination": func() { MatMulBlockInto(make([]float64, 7), New(2, 3), make([]float64, 12), 4) },
		"stride below width": func() { MatMulBlockInto(make([]float64, 8), New(2, 3), make([]float64, 12), 3) },
		"block too short":    func() { MatMulBlockInto(make([]float64, 8), New(2, 3), make([]float64, 11), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			bad()
		}()
	}
}
