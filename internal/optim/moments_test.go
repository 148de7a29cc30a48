package optim

import (
	"math"
	"slices"
	"testing"

	"middle/internal/nn"
	"middle/internal/tensor"
)

// stepTwice advances two identical quad params with two optimizers and
// reports whether they stay bit-identical.
func trajectoriesMatch(t *testing.T, a, b Optimizer, qa, qb *quadParam, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		qa.grad(0)
		qb.grad(0)
		a.Step([]*nn.Param{qa.p})
		b.Step([]*nn.Param{qb.p})
		if math.Float64bits(qa.w()) != math.Float64bits(qb.w()) {
			t.Fatalf("trajectories diverged at step %d: %v vs %v", i, qa.w(), qb.w())
		}
	}
}

// TestSGDMomentumTransfer proves a momentum handover is lossless: an
// optimizer warmed up on one host and transplanted via
// Export/ImportMoments continues bit-identically to one that never
// moved.
func TestSGDMomentumTransfer(t *testing.T) {
	stay := NewSGDMomentum(0.1, 0.9)
	qStay := newQuad(1.0)
	for i := 0; i < 5; i++ {
		qStay.grad(0)
		stay.Step([]*nn.Param{qStay.p})
	}

	moved := NewSGDMomentum(0.1, 0.9)
	qMoved := newQuad(qStay.w())
	flat, lens, steps := stay.ExportMoments()
	if steps != 5 {
		t.Fatalf("exported step counter %d, want 5", steps)
	}
	if !moved.ImportMoments(flat, lens, steps) {
		t.Fatal("import rejected a matching export")
	}
	trajectoriesMatch(t, stay, moved, qStay, qMoved, 10)
}

// TestAdamTransfer does the same for Adam, where the step counter feeds
// bias correction and a lost counter would visibly change step sizes.
func TestAdamTransfer(t *testing.T) {
	stay := NewAdam(0.01)
	qStay := newQuad(1.0)
	for i := 0; i < 7; i++ {
		qStay.grad(0)
		stay.Step([]*nn.Param{qStay.p})
	}

	moved := NewAdam(0.01)
	qMoved := newQuad(qStay.w())
	flat, lens, steps := stay.ExportMoments()
	if steps != 7 {
		t.Fatalf("exported step counter %d, want 7", steps)
	}
	if !moved.ImportMoments(flat, lens, steps) {
		t.Fatal("import rejected a matching export")
	}
	trajectoriesMatch(t, stay, moved, qStay, qMoved, 10)
}

// TestImportMismatchResets verifies the corrupt-handover path: a shape
// mismatch must refuse the import and leave the optimizer cold (as if
// freshly Reset), never adopt partial state.
func TestImportMismatchResets(t *testing.T) {
	s := NewSGDMomentum(0.1, 0.9)
	q := newQuad(1.0)
	q.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q.p})

	if s.ImportMoments([]float64{1, 2, 3}, []int{2}, 9) {
		t.Fatal("import accepted mismatched lens")
	}
	// After the rejected import the optimizer must behave cold: the
	// first step with a fresh velocity moves exactly lr·g.
	before := q.w()
	q.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q.p})
	if math.Abs((before-q.w())-0.1) > 1e-12 {
		t.Fatalf("post-reject step moved %v, want fresh 0.1", before-q.w())
	}

	a := NewAdam(0.01)
	qa := newQuad(1.0)
	qa.p.Grad.Data[0] = 1
	a.Step([]*nn.Param{qa.p})
	if a.ImportMoments([]float64{1}, []int{1}, 3) {
		t.Fatal("Adam import accepted half its moment groups")
	}
}

// TestImportedStateRejectedOnParamMismatch: moments imported for one
// network shape must be discarded (not crash) if the optimizer is then
// stepped against differently shaped params — the mux/resize guard.
func TestImportedStateRejectedOnParamMismatch(t *testing.T) {
	src := NewSGDMomentum(0.1, 0.9)
	q := newQuad(1.0)
	q.p.Grad.Data[0] = 1
	src.Step([]*nn.Param{q.p})
	flat, lens, steps := src.ExportMoments()

	dst := NewSGDMomentum(0.1, 0.9)
	if !dst.ImportMoments(flat, lens, steps) {
		t.Fatal("import rejected a matching export")
	}
	q2 := newQuad(1.0)
	q3 := newQuad(2.0)
	q2.p.Grad.Data[0] = 1
	q3.p.Grad.Data[0] = 1
	dst.Step([]*nn.Param{q2.p, q3.p}) // must not panic; state reallocates
}

// TestExportEmptyOptimizer: a never-stepped optimizer exports empty
// state that round-trips to another cold optimizer.
func TestExportEmptyOptimizer(t *testing.T) {
	flat, lens, steps := NewSGDMomentum(0.1, 0.9).ExportMoments()
	if len(flat) != 0 || len(lens) != 0 || steps != 0 {
		t.Fatalf("cold export not empty: %v %v %d", flat, lens, steps)
	}
	dst := NewSGDMomentum(0.1, 0.9)
	if !dst.ImportMoments(flat, lens, steps) {
		t.Fatal("cold import rejected")
	}
	flat, lens, steps = NewAdam(0.01).ExportMoments()
	if len(flat) != 0 || len(lens) != 0 || steps != 0 {
		t.Fatalf("cold Adam export not empty: %v %v %d", flat, lens, steps)
	}
}

// resettable is what both stateful optimizers are to the tests below.
type resettable interface {
	Optimizer
	MomentExporter
}

func statefulOptimizers() map[string]func() resettable {
	return map[string]func() resettable{
		"sgd-momentum": func() resettable { return NewSGDMomentum(0.1, 0.9) },
		"adam":         func() resettable { return NewAdam(0.01) },
	}
}

// TestResetKeepsBuffersNotState pins what Reset promises now that it
// keeps its buffers for the next Step to clear: between Reset and Step
// there is no state to export, the first Step after Reset is the first
// Step of a fresh optimizer bit for bit, and the rounds after it are too.
func TestResetKeepsBuffersNotState(t *testing.T) {
	for name, mk := range statefulOptimizers() {
		used, qUsed := mk(), newQuad(1.0)
		for i := 0; i < 5; i++ {
			qUsed.grad(0)
			used.Step([]*nn.Param{qUsed.p})
		}
		used.Reset()
		if flat, lens, steps := used.ExportMoments(); len(flat) != 0 || len(lens) != 0 || steps != 0 {
			t.Fatalf("%s: export after Reset = %v %v %d, want nothing", name, flat, lens, steps)
		}
		fresh, qFresh := mk(), newQuad(qUsed.w())
		trajectoriesMatch(t, used, fresh, qUsed, qFresh, 6)
		uf, ul, us := used.ExportMoments()
		ff, fl, fs := fresh.ExportMoments()
		if us != fs || len(ul) != len(fl) || len(uf) != len(ff) {
			t.Fatalf("%s: exports differ after identical rounds: %v %v %d vs %v %v %d", name, uf, ul, us, ff, fl, fs)
		}
		for i := range uf {
			if math.Float64bits(uf[i]) != math.Float64bits(ff[i]) {
				t.Fatalf("%s: exported moment %d is %v, a fresh optimizer's is %v", name, i, uf[i], ff[i])
			}
		}
	}
}

// TestImportAfterResetOwnsItsState: an import into an optimizer holding
// buffers from before a Reset must neither alias the caller's slice nor
// be cleared by the next Step as if it were those stale buffers.
func TestImportAfterResetOwnsItsState(t *testing.T) {
	for name, mk := range statefulOptimizers() {
		src, q := mk(), newQuad(1.0)
		for i := 0; i < 3; i++ {
			q.grad(0)
			src.Step([]*nn.Param{q.p})
		}
		flat, lens, steps := src.ExportMoments()

		dst, qDst := mk(), newQuad(2.0)
		qDst.grad(0)
		dst.Step([]*nn.Param{qDst.p})
		dst.Reset()
		given := append([]float64(nil), flat...)
		if !dst.ImportMoments(given, lens, steps) {
			t.Fatalf("%s: import after Reset rejected", name)
		}
		for i := range given {
			given[i] = math.NaN() // the caller reuses its slice
		}
		qDst.p.Value.Data[0] = q.w()
		trajectoriesMatch(t, src, dst, q, qDst, 4)
	}
}

// TestMomentsRoundTripInPlace: a warmed-up optimizer exports into slices
// that already have the capacity, and imports into groups of the same
// shapes, without allocating, and both give the bits of the allocating
// path: ExportMoments, and an import into an optimizer holding no groups.
func TestMomentsRoundTripInPlace(t *testing.T) {
	newParams := func() []*nn.Param {
		ps := []*nn.Param{
			{Name: "w", Value: tensor.New(16, 8), Grad: tensor.New(16, 8)},
			{Name: "b", Value: tensor.New(8), Grad: tensor.New(8)},
		}
		for j, p := range ps {
			for i := range p.Value.Data {
				p.Value.Data[i] = 0.01 * float64((i+3*j)%11-5)
			}
		}
		return ps
	}
	steps := func(opt Optimizer, ps []*nn.Param, n int) {
		for k := 0; k < n; k++ {
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = p.Value.Data[i] - 0.1*float64(i%7)
				}
			}
			opt.Step(ps)
		}
	}
	for name, mk := range statefulOptimizers() {
		src := mk()
		steps(src, newParams(), 3)
		wantFlat, wantLens, wantSteps := src.ExportMoments()

		flat, lens := make([]float64, 0, len(wantFlat)), make([]int, 0, len(wantLens))
		gotFlat, gotLens, gotSteps := src.ExportMomentsInto(flat, lens)
		switch {
		case !sameFloats(gotFlat, wantFlat) || !slices.Equal(gotLens, wantLens) || gotSteps != wantSteps:
			t.Fatalf("%s: ExportMomentsInto gives %d values, lens %v, %d steps; ExportMoments %d, %v, %d",
				name, len(gotFlat), gotLens, gotSteps, len(wantFlat), wantLens, wantSteps)
		case &gotFlat[0] != &flat[:1][0] || &gotLens[0] != &lens[:1][0]:
			t.Fatalf("%s: ExportMomentsInto did not write into the slices it was given", name)
		}

		// dst holds groups of the exported shapes; cold allocates its own.
		dst, cold := mk(), mk()
		dstParams, coldParams := newParams(), newParams()
		steps(dst, newParams(), 1)
		if !dst.ImportMoments(gotFlat, gotLens, gotSteps) || !cold.ImportMoments(wantFlat, wantLens, wantSteps) {
			t.Fatalf("%s: import rejected a matching export", name)
		}
		inFlat, _, inSteps := dst.ExportMoments()
		if !sameFloats(inFlat, wantFlat) || inSteps != wantSteps {
			t.Fatalf("%s: the state imported in place is not the state exported", name)
		}
		steps(dst, dstParams, 2)
		steps(cold, coldParams, 2)
		for j := range dstParams {
			if !sameFloats(dstParams[j].Value.Data, coldParams[j].Value.Data) {
				t.Fatalf("%s: after an in-place import, steps differ from those after an allocating one", name)
			}
		}

		if raceDetector {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { src.ExportMomentsInto(flat, lens) }); n != 0 {
			t.Errorf("%s: ExportMomentsInto into slices with the capacity allocates %v times", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { dst.ImportMoments(wantFlat, wantLens, wantSteps) }); n != 0 {
			t.Errorf("%s: ImportMoments into groups of the same shapes allocates %v times", name, n)
		}
	}
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
