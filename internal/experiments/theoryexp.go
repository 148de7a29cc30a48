package experiments

import (
	"math"

	"middle/internal/core"
	"middle/internal/eval"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/optim"
	"middle/internal/simil"
	"middle/internal/theory"
)

// TheoryResult sweeps the global mobility P and the fixed aggregation
// coefficient α on the strongly convex quadratic objective of §5,
// reporting the measured optimality gap, the starting-point divergence
// the proof bounds, and the Theorem 1 bound itself.
type TheoryResult struct {
	Ps     []float64
	Alphas []float64
	// Gap[i][j] is the seed-averaged optimality gap at (Ps[i], Alphas[j]).
	Gap [][]float64
	// Divergence[i][j] is the seed-averaged starting-point divergence.
	Divergence [][]float64
	// GapHW and DivergenceHW are the cells' 95% half-widths over the
	// seeds, 1.96·s/√n.
	GapHW, DivergenceHW [][]float64
	// Bound[i] is the Theorem 1 bound at Ps[i] with α = 0.5 and the
	// sweep's nominal constants — the monotone-in-P reference curve of
	// Remark 1.
	Bound []float64
}

// TheoryConfig sizes the §5 validation sweep.
type TheoryConfig struct {
	Scale  Scale
	Seed   int64
	Ps     []float64
	Alphas []float64
}

// RunTheory executes the sweep. Defaults reproduce the Remark 1 grid:
// P ∈ {0.1 … 1.0}, α ∈ {0.1, 0.3, 0.5}.
func RunTheory(cfg TheoryConfig) TheoryResult {
	if len(cfg.Ps) == 0 {
		cfg.Ps = []float64{0.1, 0.2, 0.3, 0.5, 0.7, 1.0}
	}
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0.1, 0.3, 0.5}
	}
	dim := pick(cfg.Scale, 16, 8)
	edges := pick(cfg.Scale, 10, 4)
	devices := pick(cfg.Scale, 100, 16)
	steps := pick(cfg.Scale, 500, 120)
	seeds := pick(cfg.Scale, 16, 6)
	q := theory.NewClusteredQuadratic(dim, edges, devices, 2.0, 0.3, 0.2, cfg.Seed)

	res := TheoryResult{Ps: cfg.Ps, Alphas: cfg.Alphas}
	iLocal := 5
	gamma := float64(iLocal) * 2
	for _, p := range cfg.Ps {
		row := func() []float64 { return make([]float64, len(cfg.Alphas)) }
		gap, gapHW, div, divHW := row(), row(), row(), row()
		for j, a := range cfg.Alphas {
			gaps, divs := TheoryCell{
				Edges: edges, P: p, Alpha: a,
				LocalSteps: iLocal, CloudInterval: 10, Steps: steps,
				Gamma: gamma, Seed: cfg.Seed + 31,
			}.Run(q, seeds)
			gap[j], gapHW[j] = meanHalfWidth(gaps)
			div[j], divHW[j] = meanHalfWidth(divs)
		}
		res.Gap, res.GapHW = append(res.Gap, gap), append(res.GapHW, gapHW)
		res.Divergence, res.DivergenceHW = append(res.Divergence, div), append(res.DivergenceHW, divHW)
		res.Bound = append(res.Bound, theory.Bound(theory.BoundParams{
			Beta: 1, Mu: 1, Gamma: gamma, T: steps,
			B: 1, InitDist2: 4, I: iLocal, G2: 4, Alpha: 0.5, P: p,
		}))
	}
	return res
}

// meanHalfWidth returns the mean of xs and its 95% half-width 1.96·s/√n.
func meanHalfWidth(xs []float64) (mean, hw float64) {
	return eval.Mean(xs), 1.96 * eval.Std(xs) / math.Sqrt(float64(len(xs)))
}

// TheoryCell is one cell of the §5 process on hfl.Sim: every device of
// the quadratic trains every step (core.FixedAlpha with K = the device
// count), devices move under mobility.NewMarkov at P, a moved device
// starts from the fixed-α blend, edges aggregate every step and the
// cloud every T_c steps, at Theorem 1's rate η_t = 2/(µ(γ+t)) with µ = 1.
// All models start at the origin.
type TheoryCell struct {
	Edges         int
	P             float64 // global mobility
	Alpha         float64 // local-model blending coefficient (0 = classical HFL)
	LocalSteps    int     // I
	CloudInterval int     // T_c
	Steps         int     // T
	Gamma         float64 // γ; 0 = max(8β/µ, I)
	Seed          int64
}

// Run simulates seeds realisations, seed i with Seed + i·7919, and
// returns each one's final optimality gap F(w_c) − F* and its
// run-average of Σ_m h_m‖ŵ_m − w̄‖², the divergence between the devices'
// local-training start points ŵ_m and their h-weighted average w̄ that
// the proof bounds via α and P (Eq. 19).
func (c TheoryCell) Run(q *theory.Quadratic, seeds int) (gaps, divergences []float64) {
	gamma := c.Gamma
	if gamma <= 0 {
		gamma = math.Max(8, float64(c.LocalSteps))
	}
	devices := len(q.Centers)
	sizes := make([]int, devices) // equal d_m stand for the equal h_m
	for m := range sizes {
		sizes[m] = 1
	}
	wbar := make([]float64, q.Dim)
	for i := 0; i < seeds; i++ {
		seed := c.Seed + int64(i)*7919
		sim := hfl.NewWithUpdater(hfl.Config{
			Seed: seed, K: devices, LocalSteps: c.LocalSteps, CloudInterval: c.CloudInterval,
			Steps:      c.Steps,
			LRSchedule: optim.InverseSchedule{Base: 2 / gamma, Gamma: gamma},
		}, make([]float64, q.Dim), sizes, func(int) hfl.DeviceUpdater { return q },
			mobility.NewMarkov(c.Edges, devices, c.P, seed), core.NewFixedAlpha(c.Alpha))
		div := 0.0
		for t := 0; t < c.Steps; t++ {
			sim.StepOnce()
			simil.WeightedAverageInto(wbar, q.Starts, q.Weights)
			for m, start := range q.Starts {
				d := simil.DeltaNorm(start, wbar)
				div += q.Weights[m] * d * d
			}
		}
		gaps = append(gaps, q.F(sim.CloudModel())-q.FStar())
		divergences = append(divergences, div/float64(c.Steps))
	}
	return gaps, divergences
}
