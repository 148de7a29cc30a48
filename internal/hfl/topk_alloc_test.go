//go:build !race

package hfl

import (
	"testing"

	"middle/internal/tensor"
)

// Under the race detector sync.Pool drops a share of what is Put into it
// on purpose, so the steady state below does not exist there.

// TestTopKByScoreSteadyStateAllocs pins the allocation contract: once the
// pooled scratch has grown to the candidate count, a call allocates the
// returned k-slice and nothing else.
func TestTopKByScoreSteadyStateAllocs(t *testing.T) {
	cands := make([]int, 10_000)
	scores := make([]float64, len(cands))
	rng := tensor.NewRNG(3)
	for i := range cands {
		cands[i] = i
		scores[i] = float64(rng.Intn(4))
	}
	score := func(m int) float64 { return scores[m] }
	allocs := testing.AllocsPerRun(50, func() {
		if got := TopKByScore(cands, score, 2, rng); len(got) != 2 {
			t.Fatalf("TopK returned %v", got)
		}
	})
	if allocs > 1 {
		t.Fatalf("TopKByScore allocates %v objects per call in steady state, want 1 (the result)", allocs)
	}
}

// TestRandomKSteadyStateAllocs: the shuffle runs in the pooled scratch,
// so a call allocates the returned k-slice and nothing else, where a
// copy of every candidate was made per call before.
func TestRandomKSteadyStateAllocs(t *testing.T) {
	cands := make([]int, 10_000)
	for i := range cands {
		cands[i] = i
	}
	rng := tensor.NewRNG(3)
	allocs := testing.AllocsPerRun(50, func() {
		if got := RandomK(cands, 2, rng); len(got) != 2 {
			t.Fatalf("RandomK returned %v", got)
		}
	})
	if allocs > 1 {
		t.Fatalf("RandomK allocates %v objects per call in steady state, want 1 (the result)", allocs)
	}
}
