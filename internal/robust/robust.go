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
	kept   [][]float64 // scratch: the surviving updates' headers, in order
	keptW  []float64   // scratch: their weights
	norms  []float64   // scratch: ‖vecs[i]−ref‖ for surviving updates
	sorted []float64   // scratch: norms copy for the median
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
// point's pre-round model). It returns the kept vectors and weights, in
// order, in the validator's own scratch, valid until its next Filter: the
// caller's slices are only read, never reordered, so a caller that walks
// its own vecs afterwards still sees every update once. Nothing is
// allocated once the scratch has grown to a round's updates. A nil
// validator keeps everything and returns the caller's slices.
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
	kept, keptW := v.kept[:0], v.keptW[:0]
	for i, vec := range vecs {
		if !IsFinite(vec) {
			rc.NonFinite++
			continue
		}
		kept, keptW = append(kept, vec), append(keptW, weights[i])
	}
	v.kept, v.keptW = kept, keptW
	if v.cfg.NormBound <= 0 || len(kept) < 3 {
		return kept, keptW, rc
	}
	if cap(v.norms) < len(kept) {
		v.norms = make([]float64, len(kept))
		v.sorted = make([]float64, len(kept))
	}
	norms := v.norms[:len(kept)]
	for i, vec := range kept {
		norms[i] = deltaNorm(vec, ref)
	}
	bound := v.cfg.NormBound * medianInto(v.sorted[:len(kept)], norms)
	k := 0
	for i, vec := range kept {
		if norms[i] > bound {
			rc.Norm++
			continue
		}
		kept[k], keptW[k] = vec, keptW[i]
		k++
	}
	return kept[:k], keptW[:k], rc
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
