package fednet

import (
	"fmt"

	"middle/internal/simil"
)

// shardAgg is the sharded Eq. 7 accumulator: edges are partitioned
// across K aggregator shards by edgeID % K, each shard streaming the
// partial weighted sum Σ d̂_n·w_n of its edges as RoundDone frames
// arrive, and the shards are merged by one final BLAS-1 sweep
// (axpy-accumulate then a single scale by 1/ΣW). Peak memory is K
// model vectors instead of one vector per reporting edge, and each
// edge's payload is released as soon as it is folded in.
//
// Merging Σwᵢvᵢ / ΣW reassociates the floating-point reduction
// relative to the gather-then-WeightedAverageInto path, so sharded
// aggregation is epsilon-equivalent, not bit-identical; Shards ≤ 1
// keeps the original path untouched. Because partial sums cannot
// express coordinate-wise medians or per-update screening, NewCloud
// rejects Shards > 1 combined with a robust aggregator or validator.
type shardAgg struct {
	k        int
	dim      int
	partials [][]float64 // lazily allocated: Σ w·vec per shard
	weights  []float64   // Σ w per shard
	edges    int         // contributions folded in
}

func newShardAgg(k, dim int) *shardAgg {
	return &shardAgg{k: k, dim: dim, partials: make([][]float64, k), weights: make([]float64, k)}
}

// add folds one edge's model into its shard's running weighted sum.
func (s *shardAgg) add(edgeID int, vec []float64, w float64) error {
	if len(vec) != s.dim {
		return fmt.Errorf("fednet: edge %d reported a %d-dim model, want %d", edgeID, len(vec), s.dim)
	}
	if w <= 0 {
		return nil
	}
	sh := edgeID % s.k
	if sh < 0 {
		sh += s.k
	}
	if s.partials[sh] == nil {
		s.partials[sh] = make([]float64, s.dim)
	}
	simil.AxpyInto(s.partials[sh], vec, w)
	s.weights[sh] += w
	s.edges++
	return nil
}

// mergeInto combines the per-shard partial sums into dst (the weighted
// mean over every contribution). It reports false — dst untouched —
// when no edge contributed.
func (s *shardAgg) mergeInto(dst []float64) bool {
	totalW := 0.0
	for _, w := range s.weights {
		totalW += w
	}
	if totalW <= 0 {
		return false
	}
	clear(dst)
	for sh, p := range s.partials {
		if p == nil || s.weights[sh] == 0 {
			continue
		}
		simil.AxpyInto(dst, p, 1)
	}
	simil.ScaleInto(dst, 1/totalW)
	return true
}
