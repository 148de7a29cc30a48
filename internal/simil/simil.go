// Package simil implements the model-similarity mathematics at the heart
// of MIDDLE: the similarity utility U (paper Eq. 8), the on-device model
// aggregation rule (Eq. 9) and the accumulated update Δw (Eq. 10), all on
// flat parameter vectors.
//
// Every allocating helper has an allocation-free sibling (BlendInto,
// DeltaInto, WeightedAverageInto, OnDeviceAggregateInto) that writes into
// a caller-provided destination, and the similarity reductions are fused:
// DotNorms computes a dot product and both norms in one sweep, and
// SelectionScore never materialises the Δw vector. Hot loops (thousands
// of Sim.StepOnce calls over full model vectors) use these forms.
package simil

import (
	"fmt"
	"math"

	"middle/internal/tensor"
)

// Dot returns ⟨a, b⟩ for equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("simil: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns ‖a‖₂.
func Norm(a []float64) float64 {
	s := 0.0
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// DotNorms returns ⟨a, b⟩, ‖a‖₂ and ‖b‖₂ computed in a single pass over
// both vectors — the fused reduction behind Cosine, Utility and
// SelectionScore.
func DotNorms(a, b []float64) (dot, normA, normB float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("simil: DotNorms length mismatch %d vs %d", len(a), len(b)))
	}
	var d, sa, sb float64
	for i, av := range a {
		bv := b[i]
		d += av * bv
		sa += av * av
		sb += bv * bv
	}
	return d, math.Sqrt(sa), math.Sqrt(sb)
}

// cosineFrom turns a fused (dot, ‖a‖, ‖b‖) triple into the clamped cosine
// similarity, with the zero-vector guard shared by all callers.
func cosineFrom(dot, normA, normB float64) float64 {
	if normA < 1e-12 || normB < 1e-12 {
		return 0
	}
	c := dot / (normA * normB)
	// Guard against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Cosine returns the cosine similarity of a and b. If either vector is
// (numerically) zero the direction is undefined and Cosine returns 0,
// which downstream turns into "no aggregation" — the safe choice.
func Cosine(a, b []float64) float64 {
	return cosineFrom(DotNorms(a, b))
}

// Utility is the paper's similarity utility (Eq. 8):
// U(a, b) = max(cos(a, b), 0). Clipping at zero prevents "blind
// aggregation" of models whose update directions oppose each other.
func Utility(a, b []float64) float64 {
	return math.Max(Cosine(a, b), 0)
}

// BlendInto computes dst = (1−α)·a + α·b elementwise without allocating.
// dst may alias a or b.
func BlendInto(dst, a, b []float64, alpha float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("simil: BlendInto length mismatch dst=%d a=%d b=%d", len(dst), len(a), len(b)))
	}
	for i := range a {
		dst[i] = (1-alpha)*a[i] + alpha*b[i]
	}
}

// Blend aggregates two models with an explicit coefficient:
// out = (1−α)·a + α·b. It is the primitive both the fixed-α analysis
// (paper §5) and the baselines' 50/50 averaging build on.
func Blend(a, b []float64, alpha float64) []float64 {
	out := make([]float64, len(a))
	BlendInto(out, a, b, alpha)
	return out
}

// OnDeviceAggregateInto implements the paper's Eq. 9 without allocating.
// Given the freshly downloaded edge model wEdge and the device's carried
// local model wLocal, it computes U = U(wLocal, wEdge) and writes
//
//	ŵ = wEdge/(1+U) + U·wLocal/(1+U)
//
// into dst, returning the utility used. With U = 0 the result is exactly
// the edge model (no aggregation); with U = 1 it is the 50/50 average, so
// the edge model always dominates or ties. dst may alias wEdge or wLocal.
func OnDeviceAggregateInto(dst, wEdge, wLocal []float64) (utility float64) {
	u := Utility(wLocal, wEdge)
	if u == 0 {
		copy(dst, wEdge)
		return 0
	}
	BlendInto(dst, wEdge, wLocal, u/(1+u))
	return u
}

// OnDeviceAggregate is the allocating form of OnDeviceAggregateInto.
func OnDeviceAggregate(wEdge, wLocal []float64) (aggregated []float64, utility float64) {
	out := make([]float64, len(wEdge))
	u := OnDeviceAggregateInto(out, wEdge, wLocal)
	return out, u
}

// DeltaInto computes dst = w − wRef (paper Eq. 10, with wRef the cloud
// model) without allocating. dst may alias w or wRef.
func DeltaInto(dst, w, wRef []float64) {
	if len(w) != len(wRef) || len(dst) != len(w) {
		panic(fmt.Sprintf("simil: DeltaInto length mismatch dst=%d w=%d wRef=%d", len(dst), len(w), len(wRef)))
	}
	for i := range w {
		dst[i] = w[i] - wRef[i]
	}
}

// Delta returns the accumulated update Δw = w − wRef.
func Delta(w, wRef []float64) []float64 {
	out := make([]float64, len(w))
	DeltaInto(out, w, wRef)
	return out
}

// SelectionUtilityNorm returns the Eq. 12 similarity utility
// U(w_c, Δw_m) together with ‖Δw_m‖₂, where Δw_m = w_m − w_c (Eq. 10).
// Both come out of the one fused sweep SelectionScore already performs —
// the Δw vector is never materialised — so telemetry gets the update
// norm for free when it asks for the utility.
func SelectionUtilityNorm(wCloud, wLocal []float64) (utility, deltaNorm float64) {
	if len(wCloud) != len(wLocal) {
		panic(fmt.Sprintf("simil: SelectionUtilityNorm length mismatch %d vs %d", len(wCloud), len(wLocal)))
	}
	var dot, sc, sd float64
	for i, cv := range wCloud {
		dv := wLocal[i] - cv
		dot += cv * dv
		sc += cv * cv
		sd += dv * dv
	}
	deltaNorm = math.Sqrt(sd)
	return math.Max(cosineFrom(dot, math.Sqrt(sc), deltaNorm), 0), deltaNorm
}

// SelectionScore is the in-edge device-selection criterion (Eq. 12
// operand): −U(w_c, Δw_m) where Δw_m = w_m − w_c. Devices whose
// accumulated update points *away* from the cloud model (low similarity)
// score highest — they carry data the global model has not learned yet.
func SelectionScore(wCloud, wLocal []float64) float64 {
	u, _ := SelectionUtilityNorm(wCloud, wLocal)
	return -u
}

// DeltaNorm returns ‖w − wRef‖₂ without materialising the difference —
// the per-edge divergence ‖w_n − w_c‖ telemetry reduction.
func DeltaNorm(w, wRef []float64) float64 {
	if len(w) != len(wRef) {
		panic(fmt.Sprintf("simil: DeltaNorm length mismatch %d vs %d", len(w), len(wRef)))
	}
	s := 0.0
	for i, wv := range w {
		d := wv - wRef[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// avgBlock is how many elements of dst WeightedAverageInto finishes at a
// time: 8 KB of dst stays in L1 while every source streams past it, so
// dst is loaded and stored once instead of once per source.
const avgBlock = 1024

// WeightedAverageInto computes dst = Σ wᵢ·vecᵢ / Σ wᵢ over the given
// model vectors (the FedAvg-style aggregation of paper Eqs. 6 and 7)
// without allocating. Each element of dst is cleared and then gets
// dst[j] += (wᵢ/Σw)·vecᵢ[j] for every vector in order, zero weights
// skipped, the product rounded before the sum (tensor.AxpyUnfused); this
// is done one avgBlock of dst at a time, which changes no bit. dst is
// fully overwritten and must not alias any of the source vectors. It
// panics when vectors disagree in length, dst aliases a source, or all
// weights are zero.
func WeightedAverageInto(dst []float64, vecs [][]float64, weights []float64) {
	if len(vecs) == 0 {
		panic("simil: WeightedAverage of no vectors")
	}
	if len(vecs) != len(weights) {
		panic(fmt.Sprintf("simil: %d vectors but %d weights", len(vecs), len(weights)))
	}
	n := len(vecs[0])
	if len(dst) != n {
		panic(fmt.Sprintf("simil: WeightedAverageInto destination has length %d, want %d", len(dst), n))
	}
	totalW := 0.0
	for i, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("simil: vector %d has length %d, want %d", i, len(v), n))
		}
		if n > 0 && &v[0] == &dst[0] {
			panic(fmt.Sprintf("simil: WeightedAverageInto destination aliases source vector %d", i))
		}
		if weights[i] < 0 {
			panic(fmt.Sprintf("simil: negative weight %v", weights[i]))
		}
		totalW += weights[i]
	}
	if totalW == 0 {
		panic("simil: WeightedAverage with all-zero weights")
	}
	for lo := 0; lo < n; lo += avgBlock {
		hi := min(lo+avgBlock, n)
		d := dst[lo:hi]
		clear(d)
		for i, v := range vecs {
			if w := weights[i] / totalW; w != 0 {
				tensor.AxpyUnfused(w, v[lo:hi], d)
			}
		}
	}
}

// WeightedAverage is the allocating form of WeightedAverageInto.
func WeightedAverage(vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 {
		panic("simil: WeightedAverage of no vectors")
	}
	out := make([]float64, len(vecs[0]))
	WeightedAverageInto(out, vecs, weights)
	return out
}

// Accumulator streams the Eq. 6/Eq. 7 weighted mean one vector at a
// time: Begin(dst, Σwᵢ) then Add(vᵢ, wᵢ) for each update, in order.
// The floating-point operations are exactly those of
// WeightedAverageInto — per vector, dst[j] += (wᵢ/Σw)·vᵢ[j] with
// zero-weight vectors skipped — so a streamed aggregation is
// bit-identical to the materialized call, while the caller never has
// to hold more than one source vector at a time.
//
// The total weight must be known up front (every aggregation point in
// this codebase knows its cohort's weights before it sees the first
// model vector). The zero value is ready for Begin; an Accumulator may
// be reused across rounds.
type Accumulator struct {
	dst    []float64
	totalW float64
	added  int
}

// Begin starts a new aggregation into dst with the given total weight.
// dst is cleared (the mean overwrites it completely) and must stay
// untouched by the caller until the final Add. It panics when totalW
// is not positive, mirroring WeightedAverageInto's all-zero-weights
// panic.
func (a *Accumulator) Begin(dst []float64, totalW float64) {
	if totalW <= 0 {
		panic(fmt.Sprintf("simil: Accumulator.Begin with non-positive total weight %v", totalW))
	}
	clear(dst)
	a.dst = dst
	a.totalW = totalW
	a.added = 0
}

// Add folds one model vector with weight w into the running mean.
// Same panics as WeightedAverageInto: length mismatch, destination
// aliasing and negative weights.
func (a *Accumulator) Add(v []float64, w float64) {
	if a.dst == nil {
		panic("simil: Accumulator.Add before Begin")
	}
	if len(v) != len(a.dst) {
		panic(fmt.Sprintf("simil: Accumulator.Add vector has length %d, want %d", len(v), len(a.dst)))
	}
	if len(v) > 0 && &v[0] == &a.dst[0] {
		panic("simil: Accumulator.Add vector aliases destination")
	}
	if w < 0 {
		panic(fmt.Sprintf("simil: negative weight %v", w))
	}
	a.added++
	wn := w / a.totalW
	if wn == 0 {
		return
	}
	tensor.AxpyUnfused(wn, v, a.dst)
}

// Added returns how many vectors have been folded in since Begin.
func (a *Accumulator) Added() int { return a.added }
