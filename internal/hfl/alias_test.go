package hfl

import (
	"math"
	"testing"

	"middle/internal/tensor"
)

// aliasStrategy starts a device that stayed from the edge model and one
// that moved from its own carried model (Greedy's start) — the vectors
// themselves, as the Strategy.InitLocal contract allows, or copies of
// them with clone set, the shape strategies had before the contract.
type aliasStrategy struct{ clone bool }

func (aliasStrategy) Name() string { return "alias" }

func (aliasStrategy) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return middleLike{}.Select(v, edge, candidates, k, rng)
}

func (a aliasStrategy) InitLocal(v View, device, edge int, moved bool) []float64 {
	start := v.EdgeModel(edge)
	if moved {
		start = v.LocalModel(device)
	}
	if a.clone {
		return cloneVec(start)
	}
	return start
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainPhaseOnlyReadsInitLocalResult pins the engine's half of the
// InitLocal contract on the train phase's own body: handed the edge model
// itself as a start vector, a local round leaves that edge model bit for
// bit as it was while the device's carried vector takes the trained
// model; handed the carried vector itself — start and destination are
// then one slice — it trains exactly what it trains from a copy.
func TestTrainPhaseOnlyReadsInitLocalResult(t *testing.T) {
	f := newFixture(t, 0.5)
	s := New(smallConfig(), f.cnnFactory(), f.part, f.test, f.mob, aliasStrategy{})
	const edge, stayed, mover = 0, 1, 2

	init := s.strat.InitLocal(s, stayed, edge, false)
	if &init[0] != &s.edges[edge][0] {
		t.Fatal("fixture strategy did not return the edge model itself")
	}
	before := cloneVec(s.edges[edge])
	job := trainJob{device: stayed, init: init, out: s.store.materialize(stayed)}
	s.trainDevice(s.workers[0], &job, 1)
	if !bitsEqual(s.edges[edge], before) {
		t.Fatal("a local round wrote to the edge model it started from")
	}
	if bitsEqual(job.out, before) {
		t.Fatal("the local round trained nothing: the check above proves nothing")
	}

	// Give the mover a carried model that differs from every edge model,
	// then start it from that vector itself and from a copy of it.
	carried := s.store.materialize(mover)
	copy(carried, job.out)
	fromCopy := trainJob{device: mover, init: cloneVec(carried), out: make([]float64, len(carried))}
	s.trainDevice(s.workers[0], &fromCopy, 2)
	init = s.strat.InitLocal(s, mover, edge, true)
	if &init[0] != &carried[0] {
		t.Fatal("fixture strategy did not return the carried model itself")
	}
	inPlace := trainJob{device: mover, init: init, out: carried}
	s.trainDevice(s.workers[1], &inPlace, 2)
	if !bitsEqual(inPlace.out, fromCopy.out) {
		t.Fatal("training from the carried vector itself differs from training from its copy")
	}
}

// TestAliasingStrategyMatchesCloningStrategy is the same contract over
// whole runs: under mobility 0.5 and both device stores, a strategy that
// hands the engine its own edge and carried vectors ends every step with
// the bits a strategy handing out copies ends it with — cloud model,
// edge models and every device's carried model. A write through a start
// vector, or a read of one after its edge or device had moved on, would
// part the two runs.
func TestAliasingStrategyMatchesCloningStrategy(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		mk := func(clone bool) *Sim {
			f := newFixture(t, 0.5)
			cfg := smallConfig()
			cfg.LazyStore = lazy
			return New(cfg, f.cnnFactory(), f.part, f.test, f.mob, aliasStrategy{clone: clone})
		}
		alias, clone := mk(false), mk(true)
		for step := 1; step <= 12; step++ {
			alias.StepOnce()
			clone.StepOnce()
			if !bitsEqual(alias.cloud, clone.cloud) {
				t.Fatalf("lazy=%v step %d: cloud models differ", lazy, step)
			}
			for n := range alias.edges {
				if !bitsEqual(alias.edges[n], clone.edges[n]) {
					t.Fatalf("lazy=%v step %d: edge %d models differ", lazy, step, n)
				}
			}
			for m := 0; m < alias.numDevices; m++ {
				if !bitsEqual(alias.store.model(m), clone.store.model(m)) {
					t.Fatalf("lazy=%v step %d: device %d carried models differ", lazy, step, m)
				}
			}
		}
		if alias.moves == 0 {
			t.Fatalf("lazy=%v: no device ever moved, the carried-vector start never ran", lazy)
		}
	}
}
