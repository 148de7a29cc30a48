package hfl

import (
	"math"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/optim"
	"middle/internal/tensor"
)

func TestEvalSamplesCapsEvaluation(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.EvalSamples = 16
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	acc, _ := s.EvaluateVector(s.CloudModel(), cfg.EvalSamples, false)
	// Accuracy over 16 samples is a multiple of 1/16.
	scaled := acc * 16
	if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
		t.Fatalf("accuracy %v not consistent with 16-sample eval", acc)
	}
}

func TestEvalZeroCapUsesWholeTestSet(t *testing.T) {
	f := newFixture(t, 0.3)
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	accAll, _ := s.EvaluateVector(s.CloudModel(), 0, false)
	scaled := accAll * float64(f.test.Len())
	if math.Abs(scaled-math.Round(scaled)) > 1e-6 {
		t.Fatalf("accuracy %v not a multiple of 1/%d", accAll, f.test.Len())
	}
}

// candidateCheckStrategy verifies that every candidate handed to Select
// actually resides in the edge being selected for.
type candidateCheckStrategy struct {
	t   *testing.T
	sim *Sim
}

func (c *candidateCheckStrategy) Name() string { return "candidate-check" }

func (c *candidateCheckStrategy) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	membership := c.sim.Membership()
	for _, m := range candidates {
		if membership[m] != edge {
			c.t.Errorf("device %d offered to edge %d but lives on edge %d", m, edge, membership[m])
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	return candidates[:k]
}

func (c *candidateCheckStrategy) InitLocal(v View, device, edge int, moved bool) []float64 {
	return append([]float64(nil), v.EdgeModel(edge)...)
}

func TestSelectCandidatesMatchMembership(t *testing.T) {
	f := newFixture(t, 0.7)
	strat := &candidateCheckStrategy{t: t}
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, strat)
	strat.sim = s
	s.Run()
}

func TestWorkerPoolLargerThanJobs(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.Parallelism = 64 // far more workers than jobs per step
	cfg.Steps = 3
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	s.Run() // must not deadlock or panic
}

func TestAdamOptimizerPath(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.Optimizer = OptimizerSpec{Kind: OptAdam, LR: 0.005}
	cfg.Steps = 6
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	h := s.Run()
	if h.FinalAcc() <= 0 {
		t.Fatalf("adam run accuracy %v", h.FinalAcc())
	}
}

func TestPlainSGDOptimizerPath(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.Optimizer = OptimizerSpec{Kind: OptSGD, LR: 0.05}
	cfg.Steps = 6
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	if s.Run().Len() == 0 {
		t.Fatal("no evals recorded")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.K != 5 || cfg.LocalSteps != 10 || cfg.CloudInterval != 10 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.Optimizer.Kind != OptSGDMomentum || cfg.Optimizer.Momentum != 0.9 {
		t.Fatalf("default optimizer %+v", cfg.Optimizer)
	}
	if cfg.Parallelism < 1 {
		t.Fatalf("parallelism %d", cfg.Parallelism)
	}
}

func TestBatchLargerThanShardIsClamped(t *testing.T) {
	prof := data.FastImageProfile(3)
	train := data.GenerateImagesSplit(prof, 60, 3, 3)
	test := data.GenerateImagesSplit(prof, 30, 3, 31)
	part := data.PartitionIID(train, 4, 3, 1) // only 3 samples per device
	mob := mobility.NewStatic(2, 4)
	cfg := Config{Seed: 1, K: 2, LocalSteps: 2, CloudInterval: 3, BatchSize: 16, Steps: 3, EvalEvery: 3,
		Optimizer: OptimizerSpec{Kind: OptSGD, LR: 0.05}}
	s := New(cfg, fixture{test: test}.factory(), part, test, mob, &spyStrategy{})
	s.Run() // must not panic on tiny shards
}

func TestLRScheduleApplied(t *testing.T) {
	// With a zero learning rate schedule, training must be a no-op: the
	// cloud model never changes even at sync steps.
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.LRSchedule = optim.InverseSchedule{Base: 0}
	cfg.Steps = cfg.CloudInterval
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	before := append([]float64(nil), s.CloudModel()...)
	s.Run()
	for i := range before {
		if s.CloudModel()[i] != before[i] {
			t.Fatal("zero-LR schedule still changed the model")
		}
	}
}

func TestLRScheduleDecayRuns(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.LRSchedule = optim.InverseSchedule{Base: 0.05, Gamma: 10}
	cfg.Steps = 6
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	if s.Run().Len() == 0 {
		t.Fatal("no evaluations")
	}
}

func TestCommunicationAccounting(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.Steps = cfg.CloudInterval * 2
	cfg.EvalEvery = cfg.CloudInterval
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	h := s.Run()
	de, ec := s.CommCounts()
	if de <= 0 || ec <= 0 {
		t.Fatalf("comm counts %d/%d", de, ec)
	}
	// Each step selects at most K per edge; 2 transfers per selection.
	maxDE := int64(2 * cfg.K * s.NumEdges() * cfg.Steps)
	if de > maxDE {
		t.Fatalf("device-edge transfers %d exceed bound %d", de, maxDE)
	}
	// Two syncs, each at most 2 transfers per edge.
	if ec > int64(2*2*s.NumEdges()) {
		t.Fatalf("edge-cloud transfers %d", ec)
	}
	// History carries cumulative counters.
	if len(h.CommDeviceEdge) != h.Len() {
		t.Fatalf("history comm columns %d vs %d", len(h.CommDeviceEdge), h.Len())
	}
	last := h.Len() - 1
	if h.CommDeviceEdge[last] != de || h.CommEdgeCloud[last] != ec {
		t.Fatal("history comm counters disagree with sim")
	}
	if h.CommDeviceEdge[0] > h.CommDeviceEdge[last] {
		t.Fatal("comm counters not monotone")
	}
}
