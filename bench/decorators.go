package main

import (
	"sync/atomic"
	"time"

	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// The engines accept two interfaces, mobility.Model and hfl.Strategy.
// Wrapping them is how the benchmark sees inside a round without
// touching the engines: every call through either is a span.

// spanMobility records each Step of the wrapped model as mobility.step.
type spanMobility struct {
	mobility.Model
	rec *recorder
}

func (m spanMobility) Step() []int {
	start := time.Now()
	out := m.Model.Step()
	m.rec.add("mobility.step", start, time.Now())
	return out
}

// spanStrategy records Select and InitLocal calls as core.select and
// core.init_local, and counts the Eq. 9 blends (InitLocal on a moved
// device). Edges call Select concurrently in the deployment.
type spanStrategy struct {
	hfl.Strategy
	rec    *recorder
	blends atomic.Int64
}

func (s *spanStrategy) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	start := time.Now()
	out := s.Strategy.Select(v, edge, candidates, k, rng)
	s.rec.add("core.select", start, time.Now())
	return out
}

func (s *spanStrategy) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	start := time.Now()
	out := s.Strategy.InitLocal(v, device, edge, moved)
	s.rec.add("core.init_local", start, time.Now())
	if moved {
		s.blends.Add(1)
	}
	return out
}

// selectedTrainings is how many device trainings one round selects under
// the given membership: every edge takes min(k, members).
func selectedTrainings(membership []int, edges, k int) int {
	members := make([]int, edges)
	for _, e := range membership {
		members[e]++
	}
	n := 0
	for _, c := range members {
		n += min(k, c)
	}
	return n
}

// countMoves is how many devices changed edge between two memberships.
func countMoves(prev, next []int) int {
	n := 0
	for m := range next {
		if prev[m] != next[m] {
			n++
		}
	}
	return n
}
