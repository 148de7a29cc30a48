package theory_test

import (
	"math"
	"runtime"
	"testing"

	"middle/internal/eval"
	"middle/internal/experiments"
	"middle/internal/tensor"
	"middle/internal/theory"
)

func testObjective() *theory.Quadratic {
	return theory.NewClusteredQuadratic(8, 4, 16, 2.0, 0.3, 0.2, 42)
}

// run returns the seed-averaged gap and start divergence of a cell on
// hfl.Sim.
func run(q *theory.Quadratic, c experiments.TheoryCell, seeds int) (gap, divergence float64) {
	gaps, divs := c.Run(q, seeds)
	return eval.Mean(gaps), eval.Mean(divs)
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

// TestGradUnbiasedAtCenter checks Assumption 3 through the local round:
// one step at rate 1 from w = c_m lands on c_m minus the gradient, whose
// deterministic part is zero there, so the noise must average to ~0.
func TestGradUnbiasedAtCenter(t *testing.T) {
	q := testObjective()
	rng := tensor.NewRNG(2)
	m := 3
	sum := make([]float64, q.Dim)
	out := make([]float64, q.Dim)
	n := 3000
	for i := 0; i < n; i++ {
		q.UpdateDevice(m, q.Centers[m], out, 1, 1, rng)
		for j := range sum {
			sum[j] += q.Centers[m][j] - out[j]
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
	gap, _ := run(q, experiments.TheoryCell{
		Edges: 4, P: 0.3, Alpha: 0.3,
		LocalSteps: 5, CloudInterval: 5, Steps: 200, Seed: 1,
	}, 1)
	initGap := q.F(make([]float64, q.Dim)) - q.FStar()
	if gap > initGap*0.2 {
		t.Fatalf("fixed-α run did not converge: gap %v (initial %v)", gap, initGap)
	}
	if gap < 0 {
		t.Fatalf("gap below optimal: %v", gap)
	}
}

// TestRunDeterministicPerSeed also pins that the worker pool's size,
// which defaults to GOMAXPROCS, changes no bit of the gap.
func TestRunDeterministicPerSeed(t *testing.T) {
	q := testObjective()
	cfg := experiments.TheoryCell{Edges: 4, P: 0.5, Alpha: 0.4, LocalSteps: 3, CloudInterval: 5, Steps: 50, Seed: 9}
	gap, div := run(q, cfg, 1)
	if g, d := run(q, cfg, 1); g != gap || d != div {
		t.Fatal("a run is not deterministic for identical seeds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		if g, _ := run(q, cfg, 1); g != gap {
			t.Fatalf("gap with a pool of %d is %v, with the default pool %v", par, g, gap)
		}
	}
}

// TestRemark1DivergenceShrinksWithAggregation checks the mechanism the
// §5 proof relies on: with fixed-α on-device aggregation, the divergence
// between local starting points and the global average is smaller than
// without aggregation, because moved devices pull their starting points
// toward information from other edges.
func TestRemark1DivergenceShrinksWithAggregation(t *testing.T) {
	q := testObjective()
	base := experiments.TheoryCell{
		Edges: 4, P: 0.4,
		LocalSteps: 5, CloudInterval: 10, Steps: 100, Seed: 3,
	}
	withAgg := base
	withAgg.Alpha = 0.5
	noAgg := base
	noAgg.Alpha = 0
	_, dAgg := run(q, withAgg, 8)
	_, dNo := run(q, noAgg, 8)
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
	base := experiments.TheoryCell{
		Edges: 4, Alpha: 0.3,
		LocalSteps: 5, CloudInterval: 10, Steps: 150, Seed: 3,
	}
	gapAt := func(p float64) float64 {
		cfg := base
		cfg.P = p
		gap, _ := run(q, cfg, 8)
		return gap
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
	q := theory.NewClusteredQuadratic(8, 4, 16, 3.0, 0.2, 0.2, 7)
	base := experiments.TheoryCell{
		Edges: 4, P: 0.4,
		LocalSteps: 5, CloudInterval: 10, Steps: 100, Seed: 11,
	}
	withAgg := base
	withAgg.Alpha = 0.3
	gapAgg, _ := run(q, withAgg, 8)
	noAgg := base
	noAgg.Alpha = 0
	gapNo, _ := run(q, noAgg, 8)
	if gapAgg > gapNo*1.1 {
		t.Fatalf("aggregation hurt on convex problem: α=0.3 gap %v vs α=0 gap %v", gapAgg, gapNo)
	}
}

func TestBoundShape(t *testing.T) {
	p := theory.BoundParams{
		Beta: 1, Mu: 1, Gamma: 10, T: 1000, B: 1, InitDist2: 4,
		I: 10, G2: 4, Alpha: 0.5, P: 0.5,
	}
	b := theory.Bound(p)
	if b <= 0 || math.IsInf(b, 0) {
		t.Fatalf("bound = %v", b)
	}
	// Bound decreases in P (Remark 1).
	p2 := p
	p2.P = 1.0
	if theory.Bound(p2) >= b {
		t.Fatalf("bound not decreasing in P: %v -> %v", b, theory.Bound(p2))
	}
	// Bound decreases in T.
	p3 := p
	p3.T = 10000
	if theory.Bound(p3) >= b {
		t.Fatalf("bound not decreasing in T")
	}
	// α at the boundary diverges.
	p4 := p
	p4.Alpha = 0
	if !math.IsInf(theory.Bound(p4), 1) {
		t.Fatalf("bound at α=0 should be +Inf, got %v", theory.Bound(p4))
	}
	p5 := p
	p5.P = 0
	if !math.IsInf(theory.Bound(p5), 1) {
		t.Fatalf("bound at P=0 should be +Inf, got %v", theory.Bound(p5))
	}
}

func TestBoundSymmetricInAlpha(t *testing.T) {
	p := theory.BoundParams{Beta: 1, Mu: 1, Gamma: 10, T: 100, B: 1, InitDist2: 1, I: 5, G2: 1, P: 0.5}
	p.Alpha = 0.3
	a := theory.Bound(p)
	p.Alpha = 0.7
	b := theory.Bound(p)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("α(1−α) symmetry broken: %v vs %v", a, b)
	}
	// α = 0.5 minimises the mobility term.
	p.Alpha = 0.5
	if theory.Bound(p) > a {
		t.Fatalf("α=0.5 not minimal: %v vs %v", theory.Bound(p), a)
	}
}

func TestClusteredQuadraticPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	theory.NewClusteredQuadratic(0, 1, 1, 1, 1, 0, 1)
}
