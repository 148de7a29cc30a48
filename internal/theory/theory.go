// Package theory validates the paper's convergence analysis (§5) on a
// federated objective that satisfies Assumptions 1–4 exactly: each
// device's loss is the strongly convex quadratic
//
//	F_m(w) = ½‖w − c_m‖²   (µ = β = 1),
//
// with bounded-variance stochastic gradients. The global optimum is
// available in closed form, so E[F(w)] − F* is measured exactly — the
// quantity Theorem 1 bounds. Quadratic is an hfl.DeviceUpdater, so
// experiments.RunTheory checks Remark 1's prediction (the error term
// contributed by on-device aggregation decreases monotonically in the
// global mobility P) on hfl.Sim, the engine that draws the figures.
package theory

import (
	"fmt"
	"math"

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
	// Starts[m] is the start vector of device m's latest local round,
	// ŵ_m in the proof of Theorem 1.
	Starts [][]float64
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
	starts := make([][]float64, devices)
	for m := range centers {
		rng := tensor.Split(seed, int64(9000+m))
		e := m % edges
		c := make([]float64, dim)
		for j := range c {
			c[j] = bases[e][j] + withinEdge*rng.NormFloat64()
		}
		centers[m] = c
		weights[m] = 1 / float64(devices)
		starts[m] = make([]float64, dim)
	}
	return &Quadratic{Dim: dim, Centers: centers, Weights: weights, NoiseStd: noiseStd, Starts: starts}
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

// UpdateDevice implements hfl.DeviceUpdater: steps SGD steps on F_m from
// start into out at rate lr, each gradient (w − c_m) plus N(0, NoiseStd²)
// noise per coordinate from rng (Assumption 3, σ² = Dim·NoiseStd²). It
// records start in Starts[device] first; a device trains at most once a
// step, so calls never share a slot. The utility is zero.
func (q *Quadratic) UpdateDevice(device int, start, out []float64, steps int, lr float64, rng *tensor.RNG) (float64, int) {
	copy(q.Starts[device], start)
	copy(out, start)
	c := q.Centers[device]
	for i := 0; i < steps; i++ {
		for j := range out {
			out[j] -= lr * (out[j] - c[j] + q.NoiseStd*rng.NormFloat64())
		}
	}
	return 0, 0
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
