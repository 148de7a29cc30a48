package optim

import (
	"math"
	"testing"

	"middle/internal/nn"
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

// TestExportEmptyOptimizer: a never-stepped optimizer exports empty
// state.
func TestExportEmptyOptimizer(t *testing.T) {
	flat, lens, steps := NewSGDMomentum(0.1, 0.9).ExportMoments()
	if len(flat) != 0 || len(lens) != 0 || steps != 0 {
		t.Fatalf("cold export not empty: %v %v %d", flat, lens, steps)
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
