package simil

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

// TestAccumulatorBitIdentical pins the tentpole guarantee: streaming a
// cohort through Accumulator produces the exact bits of the
// materialized WeightedAverageInto call, across dimensions, cohort
// sizes and weight mixes (including zero weights).
func TestAccumulatorBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(42)
	for _, dim := range []int{1, 7, 1378} {
		for _, n := range []int{1, 2, 5, 23} {
			vecs := make([][]float64, n)
			weights := make([]float64, n)
			for i := range vecs {
				vecs[i] = make([]float64, dim)
				for j := range vecs[i] {
					vecs[i][j] = rng.NormFloat64()
				}
				// Integer-valued weights (data sizes) plus an
				// occasional zero (a fully-rejected device).
				weights[i] = float64(rng.Intn(100))
			}
			weights[0] = float64(1 + rng.Intn(100)) // keep Σw > 0
			want := make([]float64, dim)
			WeightedAverageInto(want, vecs, weights)

			got := make([]float64, dim)
			for j := range got {
				got[j] = math.NaN() // Begin must clear stale content
			}
			totalW := 0.0
			for _, w := range weights {
				totalW += w
			}
			var acc Accumulator
			acc.Begin(got, totalW)
			for i, v := range vecs {
				acc.Add(v, weights[i])
			}
			if acc.Added() != n {
				t.Fatalf("dim=%d n=%d: Added()=%d, want %d", dim, n, acc.Added(), n)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("dim=%d n=%d: coordinate %d differs: streamed %v vs materialized %v",
						dim, n, j, got[j], want[j])
				}
			}
		}
	}
}

// TestAccumulatorPanics mirrors WeightedAverageInto's contract.
func TestAccumulatorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var acc Accumulator
	mustPanic("Begin with zero weight", func() { acc.Begin(make([]float64, 3), 0) })
	mustPanic("Add before Begin", func() { (&Accumulator{}).Add(make([]float64, 3), 1) })
	dst := make([]float64, 3)
	acc.Begin(dst, 2)
	mustPanic("length mismatch", func() { acc.Add(make([]float64, 4), 1) })
	mustPanic("negative weight", func() { acc.Add(make([]float64, 3), -1) })
	mustPanic("destination alias", func() { acc.Add(dst, 1) })
}
