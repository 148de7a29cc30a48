package robust

import "middle/internal/obs"

// Point is one aggregation point — an edge applying Eq. 6 or the cloud
// applying Eq. 7 — and the one place the aggregate step is written:
// screen the received updates, tally the rejections, require a minimum
// number of survivors, combine them, tally what the combiner trimmed.
// The simulator's edge and cloud aggregation and fednet's
// Edge.runRound and Cloud.applySync all call Combine. Not safe for
// concurrent use; each aggregation point owns one.
type Point struct {
	validator *Validator
	agg       Aggregator

	// Seen and Rejected accumulate over the point's lifetime: updates
	// offered to Combine, and rejections by reason (NoteNonFinite
	// included).
	Seen     int
	Rejected RejectCounts

	rejNonFinite, rejNorm, trimmed *obs.Counter
}

// NewPoint builds an aggregation point. The robust_* series are shared
// by every point on the registry; a nil registry disables them.
func NewPoint(kind AggregatorKind, vc ValidatorConfig, r *obs.Registry) *Point {
	return &Point{
		validator:    NewValidator(vc),
		agg:          Aggregator{Kind: kind},
		rejNonFinite: r.Counter("robust_rejected_updates_total", "reason", ReasonNonFinite),
		rejNorm:      r.Counter("robust_rejected_updates_total", "reason", ReasonNorm),
		trimmed:      r.Counter("robust_trimmed_coords_total"),
	}
}

// Validating reports whether received updates are screened at all.
func (p *Point) Validating() bool { return p.validator != nil }

// NoteNonFinite tallies an update the caller refused on receipt, before
// it could reach Combine (a fednet edge must not even cache a NaN model
// for selection).
func (p *Point) NoteNonFinite() {
	p.Rejected.NonFinite++
	p.rejNonFinite.Inc()
}

// Combined reports one Combine call.
type Combined struct {
	// Kept is how many updates survived validation and Weight their
	// summed weight.
	Kept   int
	Weight float64
	// Rejects counts this call's validation rejections.
	Rejects RejectCounts
	// Applied is false when fewer than minKept updates survived: dst is
	// untouched and the caller carries its previous model forward.
	Applied bool
}

// Combine screens vecs against ref (the point's pre-round model) and,
// when at least minKept (≥ 1) survive, combines the survivors into dst.
// vecs and weights are only read (Validator.Filter screens a copy). dst
// may be ref itself but must not alias any update.
func (p *Point) Combine(dst, ref []float64, vecs [][]float64, weights []float64, minKept int) Combined {
	p.Seen += len(vecs)
	vecs, weights, rc := p.validator.Filter(ref, vecs, weights)
	p.Rejected.NonFinite += rc.NonFinite
	p.Rejected.Norm += rc.Norm
	p.rejNonFinite.Add(int64(rc.NonFinite))
	p.rejNorm.Add(int64(rc.Norm))
	out := Combined{Kept: len(vecs), Rejects: rc}
	for _, w := range weights {
		out.Weight += w
	}
	if len(vecs) < minKept {
		return out
	}
	st := p.agg.AggregateInto(dst, vecs, weights, nil)
	p.trimmed.Add(int64(st.TrimmedValues))
	out.Applied = true
	return out
}
