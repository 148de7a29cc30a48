package obs

import (
	"math"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets (cumulative
// upper-bound semantics, Prometheus-style) and tracks their sum.
// Observe is lock-free and allocation-free. Nil-safe.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DurationBuckets spans 10µs to 60s, the range of everything this
// repository times (a SIMD kernel call up to a paper-scale cloud round).
func DurationBuckets() []float64 {
	return []float64{
		1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (nil defaults to DurationBuckets). Bounds are
// fixed by whichever call registers the series first.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, kindHistogram, labels, func() *series {
		if bounds == nil {
			bounds = DurationBuckets()
		}
		h := &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		return &series{h: h}
	})
	return s.h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the common case
	// exits early; a branch-predicted scan beats binary search here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of everything observed
// so far, interpolating linearly inside the winning bucket. The first
// bucket's lower edge is 0 (every histogram here observes non-negative
// values) and observations in the +Inf bucket report the highest finite
// bound — the estimate is clamped, never invented. Returns 0 with no
// observations. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return QuantileFromBuckets(h.bounds, h.snapshotBuckets(), q)
}

// QuantileFromBuckets estimates a quantile from Prometheus-style
// cumulative bucket counts: bounds are the finite upper bounds and cum
// has len(bounds)+1 entries, the last being the +Inf bucket (== total
// count). Shared by Histogram.Quantile and the tsdb's windowed
// quantiles over bucket deltas.
func QuantileFromBuckets(bounds []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || len(cum) != len(bounds)+1 {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	for i, bound := range bounds {
		if float64(cum[i]) >= rank {
			lower := 0.0
			prev := int64(0)
			if i > 0 {
				lower = bounds[i-1]
				prev = cum[i-1]
			}
			in := cum[i] - prev
			if in <= 0 {
				return bound
			}
			frac := (rank - float64(prev)) / float64(in)
			return lower + (bound-lower)*frac
		}
	}
	// Rank landed in the +Inf bucket: clamp to the highest finite bound.
	return bounds[len(bounds)-1]
}

// snapshotBuckets returns cumulative counts per upper bound (the +Inf
// bucket last). Concurrent observes may land between bucket reads; the
// result is still a valid histogram, just a momentary one.
func (h *Histogram) snapshotBuckets() []int64 {
	out := make([]int64, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}
