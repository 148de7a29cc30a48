// Package theory validates the paper's convergence analysis (§5) on a
// federated objective that satisfies Assumptions 1–4 exactly: each
// device's loss is the strongly convex quadratic
//
//	F_m(w) = ½‖w − c_m‖²   (µ = β = 1),
//
// with bounded-variance stochastic gradients. The global optimum is
// available in closed form, so E[F(w)] − F* is measured exactly — the
// quantity Theorem 1 bounds — and Remark 1's prediction (the error term
// contributed by on-device aggregation decreases monotonically in the
// global mobility P) can be checked empirically.
package theory

import (
	"fmt"
	"math"

	"middle/internal/simil"
	"middle/internal/tensor"
)

// Quadratic is the federated quadratic objective. Device m's centre c_m
// determines its local optimum; per-edge clustering of centres creates
// the Non-IID structure across edges.
type Quadratic struct {
	Dim      int
	Centers  [][]float64
	Weights  []float64 // h_m, normalised to sum 1
	NoiseStd float64   // std of each stochastic-gradient coordinate (Assumption 3)
}

// NewClusteredQuadratic builds a quadratic objective whose device
// centres cluster by initial edge: edge n's devices share a base centre
// (spread apart across edges) plus small per-device offsets. All h_m are
// equal. This is the Non-IID-across-edges setting of the paper.
func NewClusteredQuadratic(dim, edges, devices int, spread, withinEdge, noiseStd float64, seed int64) *Quadratic {
	if devices < 1 || edges < 1 || dim < 1 {
		panic(fmt.Sprintf("theory: bad sizes dim=%d edges=%d devices=%d", dim, edges, devices))
	}
	bases := make([][]float64, edges)
	for n := range bases {
		rng := tensor.Split(seed, int64(500+n))
		b := make([]float64, dim)
		for j := range b {
			b[j] = spread * rng.NormFloat64()
		}
		bases[n] = b
	}
	centers := make([][]float64, devices)
	weights := make([]float64, devices)
	for m := range centers {
		rng := tensor.Split(seed, int64(9000+m))
		e := m % edges
		c := make([]float64, dim)
		for j := range c {
			c[j] = bases[e][j] + withinEdge*rng.NormFloat64()
		}
		centers[m] = c
		weights[m] = 1 / float64(devices)
	}
	return &Quadratic{Dim: dim, Centers: centers, Weights: weights, NoiseStd: noiseStd}
}

// WStar returns the global optimum w* = Σ h_m c_m.
func (q *Quadratic) WStar() []float64 {
	w := make([]float64, q.Dim)
	for m, c := range q.Centers {
		for j := range w {
			w[j] += q.Weights[m] * c[j]
		}
	}
	return w
}

// F evaluates the global objective F(w) = Σ h_m ½‖w − c_m‖².
func (q *Quadratic) F(w []float64) float64 {
	s := 0.0
	for m, c := range q.Centers {
		d := 0.0
		for j := range w {
			diff := w[j] - c[j]
			d += diff * diff
		}
		s += q.Weights[m] * 0.5 * d
	}
	return s
}

// FStar returns the optimal value F(w*).
func (q *Quadratic) FStar() float64 { return q.F(q.WStar()) }

// Grad returns a stochastic gradient of F_m at w: (w − c_m) plus
// N(0, NoiseStd²) noise per coordinate, satisfying Assumption 3 with
// σ² = Dim·NoiseStd².
func (q *Quadratic) Grad(m int, w []float64, rng *tensor.RNG) []float64 {
	g := make([]float64, q.Dim)
	for j := range g {
		g[j] = w[j] - q.Centers[m][j] + q.NoiseStd*rng.NormFloat64()
	}
	return g
}

// RunConfig parameterises one fixed-α hierarchical run of the §5
// setting: full device participation, Markov mobility P, on-device
// blending with constant coefficient α for moved devices, edge
// aggregation every step and cloud aggregation every T_c steps, with
// the Theorem 1 learning rate η_t = 2/(µ(γ+t)).
type RunConfig struct {
	Edges         int
	Devices       int
	P             float64 // global mobility
	Alpha         float64 // local-model blending coefficient (0 = classical HFL)
	LocalSteps    int     // I
	CloudInterval int     // T_c
	Steps         int     // T
	Mu            float64 // strong convexity (1 for the plain quadratic)
	Gamma         float64 // γ = max(8β/µ, I)
	Seed          int64
}

// Result reports one realisation of the fixed-α training process.
type Result struct {
	// Gap is the final optimality gap F(w_c) − F*, the quantity
	// Theorem 1 bounds.
	Gap float64
	// StartDivergence is the run-average of Σ_m h_m‖ŵ_m − w̄‖², the
	// divergence between the devices' local-training starting points and
	// the global average model. This is the term the proof sketch bounds
	// via α and P (Eq. 19): on-device aggregation shrinks it, and more
	// mobility gives aggregation more opportunities to act.
	StartDivergence float64
}

// Run simulates the fixed-α training process and returns the final
// optimality gap and the average starting-point divergence (a single
// realisation; average over seeds for expectations).
func Run(q *Quadratic, cfg RunConfig) Result {
	if cfg.Mu <= 0 {
		cfg.Mu = 1
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = math.Max(8/cfg.Mu, float64(cfg.LocalSteps))
	}
	devices := cfg.Devices
	rng := tensor.Split(cfg.Seed, 0x7E03)
	// All models start at the origin.
	cloud := make([]float64, q.Dim)
	edges := make([][]float64, cfg.Edges)
	for n := range edges {
		edges[n] = make([]float64, q.Dim)
	}
	locals := make([][]float64, devices)
	for m := range locals {
		locals[m] = make([]float64, q.Dim)
	}
	membership := make([]int, devices)
	for m := range membership {
		membership[m] = m % cfg.Edges
	}
	divergenceSum, divergenceCount := 0.0, 0
	for t := 1; t <= cfg.Steps; t++ {
		// Mobility: move with probability P to a uniform other edge.
		moved := make([]bool, devices)
		if cfg.Edges > 1 {
			for m := range membership {
				if rng.Float64() < cfg.P {
					next := rng.Intn(cfg.Edges - 1)
					if next >= membership[m] {
						next++
					}
					membership[m] = next
					moved[m] = true
				}
			}
		}
		eta := 2 / (cfg.Mu * (cfg.Gamma + float64(t)))
		// Full participation: every device trains.
		byEdge := make([][]int, cfg.Edges)
		for m, e := range membership {
			byEdge[e] = append(byEdge[e], m)
		}
		starts := make([][]float64, devices)
		for m := 0; m < devices; m++ {
			if moved[m] && cfg.Alpha > 0 {
				starts[m] = simil.Blend(edges[membership[m]], locals[m], cfg.Alpha)
			} else {
				starts[m] = append([]float64(nil), edges[membership[m]]...)
			}
		}
		// Record Σ h_m‖ŵ_m − w̄‖² where w̄ is the h-weighted average of
		// the starting points (the proof's virtual sequence).
		wbar := simil.WeightedAverage(starts, q.Weights)
		for m := 0; m < devices; m++ {
			d := 0.0
			for j := range wbar {
				diff := starts[m][j] - wbar[j]
				d += diff * diff
			}
			divergenceSum += q.Weights[m] * d
		}
		divergenceCount++
		for m := 0; m < devices; m++ {
			w := starts[m]
			for i := 0; i < cfg.LocalSteps; i++ {
				g := q.Grad(m, w, rng)
				for j := range w {
					w[j] -= eta * g[j]
				}
			}
			locals[m] = w
		}
		for n := range byEdge {
			if len(byEdge[n]) == 0 {
				continue
			}
			vecs := make([][]float64, len(byEdge[n]))
			ws := make([]float64, len(byEdge[n]))
			for i, m := range byEdge[n] {
				vecs[i] = locals[m]
				ws[i] = q.Weights[m]
			}
			edges[n] = simil.WeightedAverage(vecs, ws)
		}
		if t%cfg.CloudInterval == 0 {
			vecs := make([][]float64, 0, cfg.Edges)
			ws := make([]float64, 0, cfg.Edges)
			for n := range edges {
				if len(byEdge[n]) == 0 {
					continue
				}
				weight := 0.0
				for _, m := range byEdge[n] {
					weight += q.Weights[m]
				}
				vecs = append(vecs, edges[n])
				ws = append(ws, weight)
			}
			if len(vecs) > 0 {
				cloud = simil.WeightedAverage(vecs, ws)
			}
			for n := range edges {
				edges[n] = append([]float64(nil), cloud...)
			}
			for m := range locals {
				locals[m] = append([]float64(nil), cloud...)
			}
		}
	}
	res := Result{Gap: q.F(cloud) - q.FStar()}
	if divergenceCount > 0 {
		res.StartDivergence = divergenceSum / float64(divergenceCount)
	}
	return res
}

// RunAveraged averages Run over several seeds, the empirical counterpart
// of the expectation in Theorem 1.
func RunAveraged(q *Quadratic, cfg RunConfig, seeds int) Result {
	var sum Result
	for i := 0; i < seeds; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		r := Run(q, c)
		sum.Gap += r.Gap
		sum.StartDivergence += r.StartDivergence
	}
	sum.Gap /= float64(seeds)
	sum.StartDivergence /= float64(seeds)
	return sum
}

// BoundParams carries the constants of Theorem 1's right-hand side.
type BoundParams struct {
	Beta, Mu  float64 // smoothness and strong convexity
	Gamma     float64 // γ = max(8β/µ, I)
	T         int     // total steps
	B         float64 // Σ h_m² σ_m² + 6βΓ
	InitDist2 float64 // E‖w¹ − w*‖²
	I         int     // local steps
	G2        float64 // G², the uniform bound on E‖∇F_m(w,ξ)‖²
	Alpha     float64
	P         float64
}

// Bound evaluates the Theorem 1 right-hand side:
//
//	β/(γ+T+1)·(2B/µ² + (γ+1)/2·E‖w¹−w*‖²) + 8βI²G²/(µ²γ²α(1−α)P).
func Bound(p BoundParams) float64 {
	if p.Alpha <= 0 || p.Alpha >= 1 || p.P <= 0 {
		return math.Inf(1)
	}
	main := p.Beta / (p.Gamma + float64(p.T) + 1) * (2*p.B/(p.Mu*p.Mu) + (p.Gamma+1)/2*p.InitDist2)
	mobility := 8 * p.Beta * float64(p.I*p.I) * p.G2 / (p.Mu * p.Mu * p.Gamma * p.Gamma * p.Alpha * (1 - p.Alpha) * p.P)
	return main + mobility
}
