package main

import (
	"fmt"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/tensor"
)

// The task (class prototypes) and the initial model are part of a
// workload's definition, not of its seed: with both fixed, the number of
// rounds a workload needs to reach its target is a property of the
// program, so tta_s moves when rounds get faster or slower and not when
// the draw changes. The seed draws everything else: samples, the
// device partition, the mobility trace, selection tie-breaks and the
// SGD mini-batch streams.
const (
	taskSeed = 1
	initSeed = 1
)

// workload is one named set of inputs. The shapes follow ISSUE 12; the
// round counts were rescaled so a run fits the benchmark's time cap.
type workload struct {
	name string
	net  bool // fednet loopback cluster (else hfl.Sim)
	why  string

	edges, devices, perDevice int
	k, localSteps, batch, tc  int
	evalEvery                 int
	// mobilityP is the Markov-ring cross-edge move probability; 0 keeps
	// every device at its first edge (mobility.NewStatic).
	mobilityP     float64
	liveMigration bool
	// fleet builds the population-scale setup (experiments.NewScaleSetup,
	// shared-window partition, hfl LazyStore) instead of the EMNIST one.
	fleet bool
	// model builds the workload's architecture for the EMNIST profile;
	// testN is the size of its test set (the fleet setup brings its own).
	model func(rng *tensor.RNG) *nn.Network
	testN int
	// lr overrides the local SGD learning rate (0: the paper's 0.01).
	lr float64

	// target is the accuracy tta_s and rounds_to_target wait for. It sits
	// on the rising part of the workload's accuracy curve, as high as the
	// curves of different seeds still cross it within a tenth of each
	// other: nearer the plateau the slope vanishes and the crossing round
	// is decided by evaluation noise (README.md, "Steadiness").
	target float64
	// fixedRounds is the job: wall_s times it and final_acc is read at
	// its end, so neither depends on how many rounds fit into --seconds.
	// It is a multiple of evalEvery and the least a run does however
	// short --seconds is, so the target is reached on a slow box too.
	// accFloor is what final_acc must clear for the run to be correct.
	fixedRounds int
	accFloor    float64
	// hashPrefix > 0 replays that many rounds on a second, same-seed
	// engine and demands an identical model hash (determinism check).
	hashPrefix int

	setupRuns  int
	rungBudget time.Duration
}

func cnn2(rng *tensor.RNG) *nn.Network {
	return nn.NewCNN2(nn.CNN2Config{InC: 1, H: 28, W: 28, Classes: 26, C1: 8, C2: 16, Hidden: 64}, rng)
}

func mlp(rng *tensor.RNG) *nn.Network {
	return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(784, 64, rng), nn.NewReLU(), nn.NewLinear(64, 26, rng))
}

// workloads is the benchmark's fixed set, in report order.
var workloads = []*workload{
	{
		name:  "sim_tta",
		why:   "Fig. 6 in miniature: hfl.Sim, paper CNN2 on EMNIST; ~97% of a step is local training, so tensor/nn/optim do the work and hfl, mobility, fednet almost none",
		edges: 3, devices: 30, perDevice: 100, k: 2, localSteps: 5, batch: 16, tc: 10, evalEvery: 10,
		mobilityP: 0.5, model: cnn2,
		testN: 520, target: 0.95, fixedRounds: 60, accFloor: 0.90, hashPrefix: 2,
	},
	{
		name:  "sim_fleet",
		why:   "same engine, 1,000,000 devices on 100 edges with LazyStore: the population-wide select/scan phase and mobility.Step outweigh training, the O(population) work sim_tta hides",
		edges: 100, devices: 1_000_000, k: 1, tc: 10, evalEvery: 10,
		mobilityP: 0.5, fleet: true,
		target: 0.95, fixedRounds: 100, accFloor: 0.93,
	},
	{
		name:  "net_steady",
		net:   true,
		why:   "fednet loopback cluster, static devices, cheap 51,930-parameter MLP: 415 KB frames make the wire codec, pooling and aggregation dominate a round",
		edges: 4, devices: 24, perDevice: 100, k: 4, localSteps: 2, batch: 16, tc: 5, evalEvery: 20,
		model: mlp, testN: 1040, lr: 0.003,
		target: 0.80, fixedRounds: 400, accFloor: 0.95,
	},
	{
		name:  "net_churn",
		net:   true,
		why:   "net_steady's cluster with Markov-ring P=0.3 and live migration: register, handover, reconnect and retry paths instead of steady RPC set the round time",
		edges: 4, devices: 24, perDevice: 100, k: 4, localSteps: 2, batch: 16, tc: 5, evalEvery: 5,
		mobilityP: 0.3, liveMigration: true, model: mlp, testN: 2600,
		target: 0.85, fixedRounds: 60, accFloor: 0.90,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.withDefaults(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) withDefaults() *workload {
	c := *w
	if c.setupRuns == 0 {
		c.setupRuns = 21
	}
	if c.rungBudget == 0 {
		c.rungBudget = 80 * time.Millisecond
	}
	return &c
}

// toy shrinks a workload to smoke-test size: same code paths, a few
// rounds, no accuracy expectations.
func (w *workload) toy() *workload {
	c := *w
	c.target, c.accFloor = 0, 0
	c.fixedRounds, c.evalEvery, c.tc = 4, 2, 2
	c.setupRuns, c.rungBudget = 1, time.Millisecond
	if c.hashPrefix > 0 {
		c.hashPrefix = 1
	}
	switch {
	case c.fleet:
		c.edges, c.devices = 10, 2000
	case c.net:
		c.edges, c.devices, c.perDevice, c.k, c.batch, c.testN = 2, 4, 20, 2, 4, 52
	default:
		c.edges, c.devices, c.perDevice, c.k, c.localSteps, c.batch, c.testN = 3, 6, 20, 1, 1, 4, 52
	}
	return &c
}

// inputs is everything one run of a workload is built from.
type inputs struct {
	part      *data.Partition
	test      *data.Dataset
	factory   hfl.ModelFactory
	mob       mobility.Model
	strategy  hfl.Strategy
	optimizer hfl.OptimizerSpec
	simCfg    hfl.Config // sim workloads only
}

// build generates the workload's inputs from the seed.
func (w *workload) build(seed int64) *inputs {
	in := &inputs{
		strategy:  core.NewMiddle(),
		optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.01, Momentum: 0.9},
	}
	model := w.model
	if w.fleet {
		ts := experiments.NewScaleSetup(data.TaskMNIST, taskSeed, w.devices, w.edges, w.k, w.tc)
		in.part, in.test, model = ts.Partition(seed), ts.Test, ts.Factory
		in.optimizer = ts.Optimizer
		in.simCfg = ts.Config(seed, 0)
		in.simCfg.LazyStore = true
	} else {
		prof := data.EMNISTProfile()
		train := data.GenerateImagesSplit(prof, w.devices*w.perDevice*2, taskSeed, seed)
		in.test = data.GenerateImagesSplit(prof, w.testN, taskSeed, seed+1_000_003)
		in.part = data.PartitionMajorClassClustered(train, w.devices, w.perDevice, 0.85, w.edges, seed)
		if w.lr > 0 {
			in.optimizer.LR = w.lr
		}
		in.simCfg = hfl.Config{
			Seed: seed, K: w.k, LocalSteps: w.localSteps, CloudInterval: w.tc,
			BatchSize: w.batch, Optimizer: in.optimizer,
		}
	}
	// The engine only ever asks the factory for the architecture and
	// the initial weights; ignoring its stream pins the latter.
	in.factory = func(*tensor.RNG) *nn.Network { return model(tensor.Split(initSeed, 0)) }
	in.simCfg.EvalEvery = w.evalEvery
	// The runner decides when to stop; the engine's own horizon must
	// never trigger its end-of-run evaluation.
	in.simCfg.Steps = 1 << 30
	if w.mobilityP > 0 {
		in.mob = mobility.NewMarkovRing(w.edges, w.devices, w.mobilityP, seed)
	} else {
		in.mob = mobility.NewStatic(w.edges, w.devices)
	}
	return in
}
