// Package robust is the statistical-robustness layer for the MIDDLE
// stack: update validation and Byzantine-robust alternatives to the
// Eq. 6 / Eq. 7 weighted mean.
//
// PR 4 hardened the *transport* — a corrupted frame never decodes. This
// package hardens the *values*: a frame that decodes cleanly may still
// carry a NaN/Inf model, an exploding update, or an adversarial
// (sign-flipped) model, and without validation it flows straight into
// aggregation and poisons the global model. Worse, MIDDLE's mobility
// carries a poisoned model into the next edge (Eq. 9) and the Eq. 12
// selector prefers divergent updates, i.e. attackers.
//
// Three pieces:
//
//   - Validator: rejects non-finite models and (optionally) updates
//     whose norm exceeds c·median over the round's update norms — a
//     per-round adaptive threshold, so the bound tracks the natural
//     update magnitude as training anneals.
//   - Aggregator: the Eq. 6/Eq. 7 combiner — weighted mean (default,
//     bit-identical to simil.WeightedAverageInto) or β-trimmed mean.
//   - Adversary (adversary.go): a seeded, deterministic sign-flip attack
//     used by the hfl harness (fednet's poison fault kind negates
//     payloads on the wire instead).
//
// Everything here is deterministic and allocation-free after warm-up:
// scratch buffers live on the Validator/Aggregator and grow to the
// high-water mark, matching the PR 1 hot-path discipline.
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

// Active reports whether any validation would run.
func (c ValidatorConfig) Active() bool { return c.Enabled }

// RejectCounts tallies one Filter call's rejections by reason.
type RejectCounts struct {
	NonFinite int
	Norm      int
}

// Total returns the number of rejected updates.
func (r RejectCounts) Total() int { return r.NonFinite + r.Norm }

// Validator screens a round's model updates before aggregation. Not
// safe for concurrent use; each aggregation point owns one.
type Validator struct {
	cfg    ValidatorConfig
	norms  []float64 // scratch: ‖vecs[i]−ref‖ for surviving updates
	sorted []float64 // scratch: norms copy for the median
}

// NewValidator returns a validator for cfg, or nil when validation is
// disabled — callers may invoke Filter on a nil receiver.
func NewValidator(cfg ValidatorConfig) *Validator {
	if !cfg.Active() {
		return nil
	}
	return &Validator{cfg: cfg}
}

// IsFinite reports whether every element of v is finite (no NaN/±Inf).
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Filter screens the round's updates against ref (the aggregation
// point's pre-round model). It compacts the kept vectors and weights to
// the front of the input slices, preserving order, and returns the kept
// prefixes — the caller's backing arrays are reused, nothing is
// allocated. A nil validator keeps everything.
//
// Two passes: (1) drop non-finite vectors; (2) when NormBound > 0,
// compute ‖v−ref‖₂ for the survivors, take their median, and drop
// vectors beyond NormBound·median. The median adapts per round, so the
// bound follows the natural decay of update magnitudes; with fewer than
// 3 survivors the norm check is skipped (no meaningful median).
func (v *Validator) Filter(ref []float64, vecs [][]float64, weights []float64) ([][]float64, []float64, RejectCounts) {
	var rc RejectCounts
	if v == nil {
		return vecs, weights, rc
	}
	k := 0
	for i, vec := range vecs {
		if !IsFinite(vec) {
			rc.NonFinite++
			continue
		}
		vecs[k], weights[k] = vecs[i], weights[i]
		k++
	}
	vecs, weights = vecs[:k], weights[:k]
	if v.cfg.NormBound <= 0 || len(vecs) < 3 {
		return vecs, weights, rc
	}
	if cap(v.norms) < len(vecs) {
		v.norms = make([]float64, len(vecs))
		v.sorted = make([]float64, len(vecs))
	}
	norms := v.norms[:len(vecs)]
	for i, vec := range vecs {
		norms[i] = deltaNorm(vec, ref)
	}
	bound := v.cfg.NormBound * medianInto(v.sorted[:len(vecs)], norms)
	k = 0
	for i, vec := range vecs {
		if norms[i] > bound {
			rc.Norm++
			continue
		}
		vecs[k], weights[k] = vec, weights[i]
		k++
	}
	return vecs[:k], weights[:k], rc
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
