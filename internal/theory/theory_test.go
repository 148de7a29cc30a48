package theory

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

func testObjective() *Quadratic {
	return NewClusteredQuadratic(8, 4, 16, 2.0, 0.3, 0.2, 42)
}

func TestWStarMinimizesF(t *testing.T) {
	q := testObjective()
	w := q.WStar()
	fstar := q.F(w)
	rng := tensor.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		probe := append([]float64(nil), w...)
		for j := range probe {
			probe[j] += 0.5 * rng.NormFloat64()
		}
		if q.F(probe) < fstar-1e-12 {
			t.Fatalf("found point below F*: %v < %v", q.F(probe), fstar)
		}
	}
}

func TestGradUnbiasedAtCenter(t *testing.T) {
	q := testObjective()
	rng := tensor.NewRNG(2)
	// At w = c_m the deterministic gradient is zero; the stochastic one
	// must average to ~0.
	m := 3
	sum := make([]float64, q.Dim)
	n := 3000
	for i := 0; i < n; i++ {
		g := q.Grad(m, q.Centers[m], rng)
		for j := range sum {
			sum[j] += g[j]
		}
	}
	for j := range sum {
		if math.Abs(sum[j]/float64(n)) > 0.03 {
			t.Fatalf("gradient biased at coordinate %d: %v", j, sum[j]/float64(n))
		}
	}
}

func TestRunConvergesTowardOptimum(t *testing.T) {
	q := testObjective()
	gap := Run(q, RunConfig{
		Edges: 4, Devices: 16, P: 0.3, Alpha: 0.3,
		LocalSteps: 5, CloudInterval: 5, Steps: 200, Seed: 1,
	}).Gap
	initGap := q.F(make([]float64, q.Dim)) - q.FStar()
	if gap > initGap*0.2 {
		t.Fatalf("fixed-α run did not converge: gap %v (initial %v)", gap, initGap)
	}
	if gap < 0 {
		t.Fatalf("gap below optimal: %v", gap)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	q := testObjective()
	cfg := RunConfig{Edges: 4, Devices: 16, P: 0.5, Alpha: 0.4, LocalSteps: 3, CloudInterval: 5, Steps: 50, Seed: 9}
	if Run(q, cfg) != Run(q, cfg) {
		t.Fatal("Run not deterministic for identical seeds")
	}
}

// TestRemark1DivergenceShrinksWithAggregation checks the mechanism the
// §5 proof relies on: with fixed-α on-device aggregation, the divergence
// between local starting points and the global average is smaller than
// without aggregation, because moved devices pull their starting points
// toward information from other edges.
func TestRemark1DivergenceShrinksWithAggregation(t *testing.T) {
	q := testObjective()
	base := RunConfig{
		Edges: 4, Devices: 16, P: 0.4,
		LocalSteps: 5, CloudInterval: 10, Steps: 100, Seed: 3,
	}
	withAgg := base
	withAgg.Alpha = 0.5
	noAgg := base
	noAgg.Alpha = 0
	dAgg := RunAveraged(q, withAgg, 8).StartDivergence
	dNo := RunAveraged(q, noAgg, 8).StartDivergence
	if dAgg >= dNo {
		t.Fatalf("aggregation did not shrink start divergence: α=0.5 → %v, α=0 → %v", dAgg, dNo)
	}
}

// TestRemark1GapRobustAcrossMobility mirrors the paper's empirical
// observation (§6.2.2): the realized gap need not decrease monotonically
// in P, but MIDDLE-style aggregation must stay robust — the gap at high
// mobility may not blow up relative to low mobility.
func TestRemark1GapRobustAcrossMobility(t *testing.T) {
	q := testObjective()
	base := RunConfig{
		Edges: 4, Devices: 16, Alpha: 0.3,
		LocalSteps: 5, CloudInterval: 10, Steps: 150, Seed: 3,
	}
	gapAt := func(p float64) float64 {
		cfg := base
		cfg.P = p
		return RunAveraged(q, cfg, 8).Gap
	}
	low := gapAt(0.1)
	high := gapAt(0.5)
	if high > low*5 {
		t.Fatalf("gap exploded with mobility: P=0.1 → %v, P=0.5 → %v", low, high)
	}
}

// TestAggregationBeatsNoAggregation checks the headline §5 claim on the
// convex problem: with mobility present, fixed-α on-device aggregation
// yields a smaller gap than discarding the carried model (α = 0).
func TestAggregationBeatsNoAggregation(t *testing.T) {
	q := NewClusteredQuadratic(8, 4, 16, 3.0, 0.2, 0.2, 7)
	base := RunConfig{
		Edges: 4, Devices: 16, P: 0.4,
		LocalSteps: 5, CloudInterval: 10, Steps: 100, Seed: 11,
	}
	withAgg := base
	withAgg.Alpha = 0.3
	gapAgg := RunAveraged(q, withAgg, 8).Gap
	noAgg := base
	noAgg.Alpha = 0
	gapNo := RunAveraged(q, noAgg, 8).Gap
	if gapAgg > gapNo*1.1 {
		t.Fatalf("aggregation hurt on convex problem: α=0.3 gap %v vs α=0 gap %v", gapAgg, gapNo)
	}
}

func TestBoundShape(t *testing.T) {
	p := BoundParams{
		Beta: 1, Mu: 1, Gamma: 10, T: 1000, B: 1, InitDist2: 4,
		I: 10, G2: 4, Alpha: 0.5, P: 0.5,
	}
	b := Bound(p)
	if b <= 0 || math.IsInf(b, 0) {
		t.Fatalf("bound = %v", b)
	}
	// Bound decreases in P (Remark 1).
	p2 := p
	p2.P = 1.0
	if Bound(p2) >= b {
		t.Fatalf("bound not decreasing in P: %v -> %v", b, Bound(p2))
	}
	// Bound decreases in T.
	p3 := p
	p3.T = 10000
	if Bound(p3) >= b {
		t.Fatalf("bound not decreasing in T")
	}
	// α at the boundary diverges.
	p4 := p
	p4.Alpha = 0
	if !math.IsInf(Bound(p4), 1) {
		t.Fatalf("bound at α=0 should be +Inf, got %v", Bound(p4))
	}
	p5 := p
	p5.P = 0
	if !math.IsInf(Bound(p5), 1) {
		t.Fatalf("bound at P=0 should be +Inf, got %v", Bound(p5))
	}
}

func TestBoundSymmetricInAlpha(t *testing.T) {
	p := BoundParams{Beta: 1, Mu: 1, Gamma: 10, T: 100, B: 1, InitDist2: 1, I: 5, G2: 1, P: 0.5}
	p.Alpha = 0.3
	a := Bound(p)
	p.Alpha = 0.7
	b := Bound(p)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("α(1−α) symmetry broken: %v vs %v", a, b)
	}
	// α = 0.5 minimises the mobility term.
	p.Alpha = 0.5
	if Bound(p) > a {
		t.Fatalf("α=0.5 not minimal: %v vs %v", Bound(p), a)
	}
}

func TestClusteredQuadraticPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClusteredQuadratic(0, 1, 1, 1, 1, 0, 1)
}
