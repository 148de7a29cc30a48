package robust

import (
	"fmt"
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
	// AggTrimmedMean drops the ⌊β·n⌋ smallest and largest values per
	// coordinate, β = DefaultTrimFrac, and averages the rest
	// (unweighted). Breakdown point β.
	AggTrimmedMean AggregatorKind = "trimmed-mean"
)

// ParseAggregator maps a CLI/config string to an AggregatorKind. The
// empty string is the mean.
func ParseAggregator(s string) (AggregatorKind, error) {
	switch AggregatorKind(s) {
	case "", AggMean:
		return AggMean, nil
	case AggTrimmedMean:
		return AggTrimmedMean, nil
	}
	return "", fmt.Errorf("robust: unknown aggregator %q (want mean or trimmed-mean)", s)
}

// UnmarshalText is ParseAggregator for flag.TextVar and encoding/json,
// so a bad name fails where it is parsed.
func (k *AggregatorKind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseAggregator(string(text))
	return err
}

// MarshalText returns the kind's name ("" for an unset kind).
func (k AggregatorKind) MarshalText() ([]byte, error) { return []byte(k), nil }

// DefaultTrimFrac is the trimmed mean's per-side trim fraction β.
const DefaultTrimFrac = 0.2

// Aggregator combines a round's model vectors. Not safe for concurrent
// use; each aggregation point owns one. The zero value aggregates with
// the weighted mean.
type Aggregator struct {
	// Kind selects the combiner; "" means AggMean.
	Kind AggregatorKind

	col []float64 // scratch: one coordinate's values across updates
}

// AggregateInto combines vecs into dst. For the mean this is exactly
// simil.WeightedAverageInto — same panics, same floating-point result.
// The trimmed mean writes coordinate by coordinate, so dst may be the
// aggregation point's own model but must not alias any source vector,
// and the same structural panics apply (no vectors, length mismatch).
// It returns how many values the trimmed mean dropped (2·⌊β·n⌋ per
// coordinate). The last argument, the point's pre-round model, is read by
// neither combiner; the benchmark's robust.aggregate_us rung still passes
// it.
func (a *Aggregator) AggregateInto(dst []float64, vecs [][]float64, weights []float64, _ []float64) (trimmed int) {
	switch a.Kind {
	case "", AggMean:
		simil.WeightedAverageInto(dst, vecs, weights)
		return 0
	case AggTrimmedMean:
		checkShapes(dst, vecs, weights)
		return a.trimmedMeanInto(dst, vecs)
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

// trimmedMeanInto writes the β-trimmed coordinate-wise mean into dst.
// With too few updates to trim (⌊β·n⌋ == 0) it degrades to the
// unweighted mean.
func (a *Aggregator) trimmedMeanInto(dst []float64, vecs [][]float64) int {
	n := len(vecs)
	t := int(DefaultTrimFrac * float64(n))
	if 2*t >= n {
		t = (n - 1) / 2
	}
	if cap(a.col) < n {
		a.col = make([]float64, n)
	}
	col := a.col[:n]
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
	return 2 * t * len(dst)
}
