package robust

import (
	"fmt"
	"math"
	"sort"

	"middle/internal/simil"
)

// AggregatorKind selects the Eq. 6 / Eq. 7 combiner.
type AggregatorKind string

const (
	// AggMean is the paper's weighted mean (FedAvg). The default; the
	// empty string parses to it, and runs under it are bit-identical to
	// calling simil.WeightedAverageInto directly.
	AggMean AggregatorKind = "mean"
	// AggMedian is the coordinate-wise median (unweighted). Breakdown
	// point 1/2: the result is sane while a majority of updates are
	// honest.
	AggMedian AggregatorKind = "median"
	// AggTrimmedMean drops the ⌊β·n⌋ smallest and largest values per
	// coordinate and averages the rest (unweighted). Breakdown point β.
	AggTrimmedMean AggregatorKind = "trimmed-mean"
	// AggNormClip clips each update Δᵢ = vᵢ − ref to the median update
	// norm before the weighted mean: bounds any single update's pull
	// without discarding it.
	AggNormClip AggregatorKind = "norm-clip"
)

// ParseAggregator maps a CLI/config string to an AggregatorKind. The
// empty string is the mean.
func ParseAggregator(s string) (AggregatorKind, error) {
	switch AggregatorKind(s) {
	case "", AggMean:
		return AggMean, nil
	case AggMedian:
		return AggMedian, nil
	case AggTrimmedMean:
		return AggTrimmedMean, nil
	case AggNormClip:
		return AggNormClip, nil
	}
	return "", fmt.Errorf("robust: unknown aggregator %q (want mean, median, trimmed-mean or norm-clip)", s)
}

// UnmarshalText is ParseAggregator for flag.TextVar and encoding/json,
// so a bad name fails where it is parsed.
func (k *AggregatorKind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseAggregator(string(text))
	return err
}

// MarshalText returns the kind's name ("" for an unset kind).
func (k AggregatorKind) MarshalText() ([]byte, error) { return []byte(k), nil }

// DefaultTrimFrac is the trim fraction β when the config leaves it 0.
const DefaultTrimFrac = 0.2

// AggStats reports what one aggregation did, for the robust_* metrics.
type AggStats struct {
	// TrimmedValues counts values dropped by the trimmed mean
	// (2·⌊β·n⌋ per coordinate).
	TrimmedValues int
	// ClippedUpdates counts updates the norm-clipped mean scaled down.
	ClippedUpdates int
}

// Aggregator combines a round's model vectors. Not safe for concurrent
// use; each aggregation point owns one. The zero value aggregates with
// the weighted mean.
type Aggregator struct {
	// Kind selects the combiner; "" means AggMean.
	Kind AggregatorKind
	// TrimFrac is β for AggTrimmedMean; 0 means DefaultTrimFrac.
	TrimFrac float64

	col   []float64 // scratch: one coordinate's values across updates
	norms []float64 // scratch: update norms for norm-clip
	scale []float64 // scratch: per-update clip factors
}

// IsMean reports whether the aggregator is the plain weighted mean.
func (a *Aggregator) IsMean() bool {
	return a == nil || a.Kind == "" || a.Kind == AggMean
}

// AggregateInto combines vecs into dst. ref is the aggregation point's
// pre-round model; only AggNormClip reads it (others accept nil). For
// the mean this is exactly simil.WeightedAverageInto — same panics,
// same floating-point result. For the robust kinds dst may alias ref
// (coordinate-major writes), but must not alias any source vector, and
// the same structural panics apply (no vectors, length mismatch,
// negative or all-zero weights where weights are used).
func (a *Aggregator) AggregateInto(dst []float64, vecs [][]float64, weights []float64, ref []float64) AggStats {
	if a.IsMean() {
		simil.WeightedAverageInto(dst, vecs, weights)
		return AggStats{}
	}
	checkShapes(dst, vecs, weights)
	switch a.Kind {
	case AggMedian:
		a.medianInto(dst, vecs)
		return AggStats{}
	case AggTrimmedMean:
		return a.trimmedMeanInto(dst, vecs)
	case AggNormClip:
		return a.normClipInto(dst, vecs, weights, ref)
	}
	panic(fmt.Sprintf("robust: unknown aggregator kind %q", a.Kind))
}

func checkShapes(dst []float64, vecs [][]float64, weights []float64) {
	if len(vecs) == 0 {
		panic("robust: aggregate of no vectors")
	}
	if len(vecs) != len(weights) {
		panic(fmt.Sprintf("robust: %d vectors but %d weights", len(vecs), len(weights)))
	}
	n := len(vecs[0])
	if len(dst) != n {
		panic(fmt.Sprintf("robust: destination has length %d, want %d", len(dst), n))
	}
	for i, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("robust: vector %d has length %d, want %d", i, len(v), n))
		}
		if n > 0 && &v[0] == &dst[0] {
			panic(fmt.Sprintf("robust: destination aliases source vector %d", i))
		}
	}
}

func (a *Aggregator) column(n int) []float64 {
	if cap(a.col) < n {
		a.col = make([]float64, n)
	}
	return a.col[:n]
}

// medianInto writes the coordinate-wise median of vecs into dst.
func (a *Aggregator) medianInto(dst []float64, vecs [][]float64) {
	col := a.column(len(vecs))
	for j := range dst {
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		n := len(col)
		if n%2 == 1 {
			dst[j] = col[n/2]
		} else {
			dst[j] = (col[n/2-1] + col[n/2]) / 2
		}
	}
}

// trimmedMeanInto writes the β-trimmed coordinate-wise mean into dst.
// With too few updates to trim (⌊β·n⌋ == 0) it degrades to the
// unweighted mean.
func (a *Aggregator) trimmedMeanInto(dst []float64, vecs [][]float64) AggStats {
	beta := a.TrimFrac
	if beta == 0 {
		beta = DefaultTrimFrac
	}
	n := len(vecs)
	t := int(math.Floor(beta * float64(n)))
	if 2*t >= n {
		t = (n - 1) / 2
	}
	col := a.column(n)
	for j := range dst {
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		s := 0.0
		for _, x := range col[t : n-t] {
			s += x
		}
		dst[j] = s / float64(n-2*t)
	}
	return AggStats{TrimmedValues: 2 * t * len(dst)}
}

// normClipInto writes the weighted mean of updates clipped to the
// median update norm: dst = ref + Σ wᵢ·sᵢ·(vᵢ−ref) / Σ wᵢ with
// sᵢ = min(1, τ/‖vᵢ−ref‖) and τ the median of the ‖vᵢ−ref‖. dst may
// alias ref: norms are computed before any write, and each coordinate
// reads ref[j] before storing dst[j].
func (a *Aggregator) normClipInto(dst []float64, vecs [][]float64, weights []float64, ref []float64) AggStats {
	if len(ref) != len(dst) {
		panic(fmt.Sprintf("robust: norm-clip reference has length %d, want %d", len(ref), len(dst)))
	}
	totalW := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("robust: negative weight %v", w))
		}
		totalW += w
	}
	if totalW == 0 {
		panic("robust: aggregate with all-zero weights")
	}
	n := len(vecs)
	if cap(a.norms) < n {
		a.norms = make([]float64, n)
		a.scale = make([]float64, n)
	}
	norms, scale := a.norms[:n], a.scale[:n]
	for i, v := range vecs {
		norms[i] = deltaNorm(v, ref)
	}
	tau := medianInto(a.column(n), norms)
	var st AggStats
	for i, nm := range norms {
		scale[i] = weights[i] / totalW
		if nm > tau && nm > 0 {
			scale[i] *= tau / nm
			st.ClippedUpdates++
		}
	}
	for j := range dst {
		r := ref[j]
		acc := 0.0
		for i, v := range vecs {
			acc += scale[i] * (v[j] - r)
		}
		dst[j] = r + acc
	}
	return st
}
