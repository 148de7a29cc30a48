package robust

import "middle/internal/obs"

// Point is one aggregation point — an edge applying Eq. 6 or the cloud
// applying Eq. 7 — and the whole aggregate step of Algorithm 1: the caller
// offers a round's replies in cohort order (edge-id order at the cloud),
// and Combine screens them, requires a quorum of survivors and combines
// them, tallying rejections and trimmed values. hfl.Sim and fednet's Edge
// and Cloud all aggregate through it. Not safe for concurrent use.
type Point struct {
	cfg ValidatorConfig
	agg Aggregator

	// The replies offered since the last Combine, and the screen's norms
	// and their sorted copy: scratch grown to a round once and reused.
	vecs          [][]float64
	weights       []float64
	norms, sorted []float64

	// Seen and Rejected accumulate over the point's lifetime: replies
	// that reached Combine, and rejections by reason.
	Seen     int
	Rejected RejectCounts

	rejNonFinite, rejNorm, trimmed *obs.Counter
}

// NewPoint builds an aggregation point. The robust_* series are shared
// by every point on the registry; a nil registry disables them.
func NewPoint(kind AggregatorKind, vc ValidatorConfig, r *obs.Registry) *Point {
	return &Point{
		cfg:          vc,
		agg:          Aggregator{Kind: kind},
		rejNonFinite: r.Counter("robust_rejected_updates_total", "reason", ReasonNonFinite),
		rejNorm:      r.Counter("robust_rejected_updates_total", "reason", ReasonNorm),
		trimmed:      r.Counter("robust_trimmed_coords_total"),
	}
}

// Validating reports whether received updates are screened at all.
func (p *Point) Validating() bool { return p.cfg.Enabled }

// Offer adds one reply to the next Combine: vec, which must hold its
// values until then, with its weight. A nil vec (a dropped device or a
// straggler) and a weight that is not positive (an edge with nothing kept
// since the sync) are left out.
func (p *Point) Offer(vec []float64, weight float64) {
	if vec == nil || !(weight > 0) {
		return
	}
	p.vecs = append(p.vecs, vec)
	p.weights = append(p.weights, weight)
}

// Combined reports one Combine call.
type Combined struct {
	// Kept is how many offered replies survived the screen and Weight
	// their summed weight, 0 unless Applied.
	Kept   int
	Weight float64
	// Rejects counts this call's screen rejections.
	Rejects RejectCounts
	// Applied is false when fewer than the quorum survived: dst is
	// untouched and the caller carries its previous model forward.
	Applied bool
}

// Combine screens the replies offered since the last Combine against ref
// (the point's pre-round model) and, when at least quorum (≥ 1) survive,
// combines them into dst. dst may be ref itself but must not alias a
// reply. The offers are used up: the next Combine sees only later ones.
func (p *Point) Combine(dst, ref []float64, quorum int) Combined {
	p.Seen += len(p.vecs)
	rc := p.screen(ref)
	vecs, weights := p.vecs, p.weights
	p.vecs, p.weights = p.vecs[:0], p.weights[:0]
	p.Rejected.NonFinite += rc.NonFinite
	p.Rejected.Norm += rc.Norm
	p.rejNonFinite.Add(int64(rc.NonFinite))
	p.rejNorm.Add(int64(rc.Norm))
	out := Combined{Kept: len(vecs), Rejects: rc}
	if len(vecs) < quorum {
		return out
	}
	for _, w := range weights {
		out.Weight += w
	}
	p.trimmed.Add(int64(p.agg.AggregateInto(dst, vecs, weights, nil)))
	out.Applied = true
	return out
}
