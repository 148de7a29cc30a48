package hfl

import "middle/internal/tensor"

// The random draws of one round of Algorithm 1 — which devices an edge
// selects (line 2) and which minibatches a selected device trains on
// (line 8) — are defined here and nowhere else. The simulator and a fednet
// deployment both take them, so with the same seed the two engines select
// the same cohorts and draw the same minibatches. Each stream depends only
// on (seed, round, edge or device), never on scheduling.

// BatchStream re-seeds rng to device's minibatch stream of round t (the
// 1-based round being trained) in a population of devices devices.
func BatchStream(rng *tensor.RNG, seed int64, t, device, devices int) {
	rng.Reseed(seed, int64(t)*int64(devices)*4+int64(device)*4+2)
}

// selectionStream re-seeds rng to edge's selection stream of round t.
func selectionStream(rng *tensor.RNG, seed int64, t, edge int) {
	rng.Reseed(seed, int64(t)*1_000_003+int64(edge)*7+1)
}

// Cohort is Algorithm 1 line 2 at one edge in round t: it re-seeds rng to
// the edge's selection stream, lets strat select from candidates (which
// the strategy may reorder), and appends the first k ids of its choice to
// dst. No candidates select nobody and draw nothing.
func Cohort(dst []int, strat Strategy, v View, edge, t, k int, candidates []int, seed int64, rng *tensor.RNG) []int {
	if len(candidates) == 0 {
		return dst
	}
	selectionStream(rng, seed, t, edge)
	sel := strat.Select(v, edge, candidates, k, rng)
	return append(dst, sel[:min(len(sel), k)]...)
}
