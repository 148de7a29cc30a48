package hfl

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"middle/internal/tensor"
)

// topKByScoreMap is the map-based TOPK that TopKByScore replaced, kept as
// the oracle: the same shuffle, one score per candidate in shuffled
// order, and a stable selection scan that looks every score up by id.
func topKByScoreMap(candidates []int, score func(device int) float64, k int, rng *tensor.RNG) []int {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	idx := append([]int(nil), candidates...)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	scores := make(map[int]float64, len(idx))
	for _, m := range idx {
		scores[m] = score(m)
	}
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// TestTopKByScoreMatchesOracle compares TopKByScore order-exactly with
// the map-based oracle, and the RNG position both leave behind, over
// seeded inputs dominated by ties and by the non-finite scores the
// strategies produce (OORT's unexplored devices score +Inf; NaN never
// compares greater, so its rank is decided by the shuffle alone).
func TestTopKByScoreMatchesOracle(t *testing.T) {
	palettes := map[string][]float64{
		"ties":      {0, 0, 0, -1, -1, 0.5},
		"nonfinite": {math.Inf(1), math.Inf(-1), math.NaN(), 0, 0, 1, math.Inf(1)},
		"all-equal": {0},
		"all-nan":   {math.NaN()},
	}
	const kk = 5
	for _, n := range []int{0, 1, kk, kk + 1, 300, 10_000} {
		for _, k := range []int{1, 2, kk, n, n + 3} {
			if n == 10_000 && k >= n {
				continue // a full sort is quadratic; n=300 covers k ≥ n
			}
			for name, palette := range palettes {
				seed := int64(n*131 + k*17 + len(name))
				gen := tensor.NewRNG(seed)
				// Duplicate-free ids that are neither dense nor ordered.
				cands := make([]int, n)
				for i, p := range gen.Perm(n) {
					cands[i] = 3*p + 7
				}
				scoreOf := make(map[int]float64, n)
				for _, m := range cands {
					scoreOf[m] = palette[gen.Intn(len(palette))]
				}
				score := func(m int) float64 { return scoreOf[m] }

				rngWant, rngGot := tensor.NewRNG(seed+1), tensor.NewRNG(seed+1)
				want := topKByScoreMap(cands, score, k, rngWant)
				got := TopKByScore(cands, score, k, rngGot)
				label := fmt.Sprintf("n=%d k=%d %s", n, k, name)
				if len(got) != len(want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: got %d ids (nil=%v), oracle %d (nil=%v)",
						label, len(got), got == nil, len(want), want == nil)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: position %d is device %d, oracle has %d", label, i, got[i], want[i])
					}
				}
				if a, b := rngWant.Int63(), rngGot.Int63(); a != b {
					t.Fatalf("%s: RNG streams diverge after the call (%d vs %d)", label, a, b)
				}
			}
		}
	}
}

// TestRandomKMatchesFullShuffle: RandomK returns the first k of a copy
// of the candidates shuffled by the same generator, which is what the
// random-selection strategies took before it, and leaves the generator
// where that shuffle did.
func TestRandomKMatchesFullShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 5, 300} {
		for _, k := range []int{1, 2, 5, n, n + 3} {
			seed := int64(n*131 + k*17)
			cands := make([]int, n)
			for i, p := range tensor.NewRNG(seed).Perm(n) {
				cands[i] = 3*p + 7
			}
			rngWant, rngGot := tensor.NewRNG(seed+1), tensor.NewRNG(seed+1)
			want := append([]int(nil), cands...)
			rngWant.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			want = want[:min(k, n)]
			got := RandomK(cands, k, rngGot)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: RandomK gives %v, the shuffled prefix is %v", n, k, got, want)
			}
			if a, b := rngWant.Int63(), rngGot.Int63(); a != b {
				t.Fatalf("n=%d k=%d: RNG streams diverge after the call (%d vs %d)", n, k, a, b)
			}
		}
	}
}
