// Package robust is the statistical-robustness layer for the MIDDLE
// stack: update screening and Byzantine-robust alternatives to the Eq. 6 /
// Eq. 7 weighted mean. A frame that decodes cleanly may still carry a
// NaN/Inf model, an exploding update or a sign-flipped one, and without a
// screen it flows straight into aggregation; mobility then carries it to
// the next edge (Eq. 9), and the Eq. 12 selector prefers divergent
// updates, i.e. attackers.
//
//   - Point (point.go): one aggregation point's whole aggregate step.
//   - The screen (Point.screen), set by ValidatorConfig: rejects
//     non-finite models and, optionally, updates whose norm exceeds
//     c·median over the round's update norms, a per-round threshold that
//     tracks the update magnitude as training anneals.
//   - Aggregator: the combiner, the weighted mean (bit-identical to
//     simil.WeightedAverageInto) or the β-trimmed mean.
//   - Adversary (adversary.go): a seeded sign-flip attack for the hfl
//     harness (fednet's poison fault negates payloads on the wire).
//
// Everything here is deterministic and allocation-free once its scratch
// has grown to a round's high-water mark.
package robust

import (
	"math"
	"sort"
)

// Rejection reasons, used as the `reason` label on
// robust_rejected_updates_total.
const (
	ReasonNonFinite = "nonfinite"
	ReasonNorm      = "norm"
)

// ValidatorConfig configures update validation. The zero value means
// "validation off" so embedding configs stay backward compatible.
type ValidatorConfig struct {
	// Enabled turns on the non-finite check.
	Enabled bool
	// NormBound is the multiplier c in the adaptive update-norm bound
	// ‖w − w_ref‖₂ ≤ c·median(norms). 0 disables the norm check.
	// Requires Enabled.
	NormBound float64
}

// RejectCounts tallies rejections by reason.
type RejectCounts struct {
	NonFinite int
	Norm      int
}

// Total returns the number of rejected updates.
func (r RejectCounts) Total() int { return r.NonFinite + r.Norm }

// IsFinite reports whether every element of v is finite (no NaN/±Inf).
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// screen drops, in place and in order, the offered replies that p.cfg
// rejects: (1) non-finite vectors; (2) when NormBound > 0, vectors whose
// ‖v−ref‖₂ exceeds NormBound·median over the survivors, ref being the
// point's pre-round model. The median adapts per round, so the bound
// follows the decay of update magnitudes; below 3 survivors there is no
// meaningful median and the norm check is skipped.
func (p *Point) screen(ref []float64) RejectCounts {
	var rc RejectCounts
	if !p.cfg.Enabled {
		return rc
	}
	rc.NonFinite = p.keep(func(vec []float64, _ int) bool { return IsFinite(vec) })
	k := len(p.vecs)
	if p.cfg.NormBound <= 0 || k < 3 {
		return rc
	}
	if cap(p.norms) < k {
		p.norms, p.sorted = make([]float64, k), make([]float64, k)
	}
	norms := p.norms[:k]
	for i, vec := range p.vecs {
		norms[i] = deltaNorm(vec, ref)
	}
	bound := p.cfg.NormBound * medianInto(p.sorted[:k], norms)
	rc.Norm = p.keep(func(_ []float64, i int) bool { return norms[i] <= bound })
	return rc
}

// keep compacts the offered replies to those ok accepts (given a reply and
// its position) and returns how many it dropped.
func (p *Point) keep(ok func(vec []float64, i int) bool) int {
	k := 0
	for i, vec := range p.vecs {
		if ok(vec, i) {
			p.vecs[k], p.weights[k] = vec, p.weights[i]
			k++
		}
	}
	dropped := len(p.vecs) - k
	p.vecs, p.weights = p.vecs[:k], p.weights[:k]
	return dropped
}

// deltaNorm returns ‖v − ref‖₂ without materialising the delta.
func deltaNorm(v, ref []float64) float64 {
	var s float64
	for i := range v {
		d := v[i] - ref[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// medianInto copies xs into dst, sorts dst, and returns the median
// (mean of the middle pair for even lengths). xs is left untouched.
func medianInto(dst, xs []float64) float64 {
	copy(dst, xs)
	sort.Float64s(dst)
	n := len(dst)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return dst[n/2]
	}
	return (dst[n/2-1] + dst[n/2]) / 2
}
