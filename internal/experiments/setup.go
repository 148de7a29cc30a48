// Package experiments reproduces every figure of the paper's evaluation
// (§2 motivation Figures 1–2, §6 Figures 6–8) plus the §5 theory
// validation, at two scales: Fast (reduced geometry, for tests and
// benchmarks) and Paper (the §6.1.2 parameters). Each runner returns
// structured results that cmd/middlesim renders and EXPERIMENTS.md
// records.
package experiments

import (
	"fmt"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/tensor"
)

// Scale selects the experiment size.
type Scale string

// Fast runs in seconds on a laptop; Paper mirrors §6.1.2.
const (
	Fast  Scale = "fast"
	Paper Scale = "paper"
)

// TaskSetup bundles everything task-specific an experiment needs.
type TaskSetup struct {
	Task      data.TaskName
	Scale     Scale
	Train     *data.Dataset
	Test      *data.Dataset
	Factory   hfl.ModelFactory
	Optimizer hfl.OptimizerSpec

	// TargetAcc is the time-to-accuracy threshold. The paper uses
	// 0.95/0.80/0.55/0.85 on the real corpora; the Fast synthetic tasks
	// use thresholds calibrated to the same relative difficulty.
	TargetAcc float64
	// Steps is the simulated horizon for Figure 6-style runs.
	Steps int
	// EvalEvery is the evaluation cadence in time steps.
	EvalEvery int

	// Topology (defaults: paper §6.1.2 at Paper scale).
	Edges     int
	Devices   int
	K         int
	PerDevice int // samples per device shard
	I         int // local steps
	Tc        int // cloud interval
	BatchSize int
	MajorFrac float64
	// SharedPartition switches Partition to data.PartitionShared:
	// per-device shards become windows into one shared permutation, so
	// index memory is bounded by the corpus instead of Devices×PerDevice.
	// This is the population-scale path (see NewScaleSetup); it trades
	// the Non-IID major-class structure for a footprint independent of
	// the fleet size.
	SharedPartition bool
	// Obs, when set, is threaded into every simulation Config this setup
	// produces, so one registry collects the whole experiment's metrics.
	Obs *obs.Registry
	// Events, when set, receives the per-round and per-eval JSONL
	// telemetry stream of every simulation this setup produces.
	Events *obs.Emitter
	// Trace, when set, collects the round/phase span tree of every
	// simulation this setup produces.
	Trace *obs.Trace
}

// NewTaskSetup builds the setup for one of the four paper tasks.
func NewTaskSetup(task data.TaskName, scale Scale, seed int64) *TaskSetup {
	s := &TaskSetup{Task: task, Scale: scale}
	switch scale {
	case Fast:
		s.Edges, s.Devices, s.K = 4, 20, 3
		s.PerDevice, s.I, s.Tc, s.BatchSize = 40, 5, 10, 8
		s.MajorFrac = 0.85
		s.EvalEvery = 5
	case Paper:
		s.Edges, s.Devices, s.K = 10, 100, 5
		s.PerDevice, s.I, s.Tc, s.BatchSize = 100, 10, 10, 16
		s.MajorFrac = 0.85
		s.EvalEvery = 10
	default:
		panic(fmt.Sprintf("experiments: unknown scale %q", scale))
	}
	s.Optimizer = hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.01, Momentum: 0.9}

	switch task {
	case data.TaskMNIST:
		s.configureImages(scale, seed, data.MNISTProfile(), data.FastImageProfile(10))
		s.TargetAcc = pick(scale, 0.95, 0.95)
		s.Steps = pick(scale, 1500, 120)
	case data.TaskEMNIST:
		fast := data.FastImageProfile(26)
		s.configureImages(scale, seed, data.EMNISTProfile(), fast)
		s.TargetAcc = pick(scale, 0.80, 0.60)
		s.Steps = pick(scale, 5000, 150)
	case data.TaskCIFAR:
		fast := data.ImageProfile{Name: "cifar10-fast", C: 3, H: 8, W: 8, Classes: 10, Waves: 3, Shift: 2, Noise: 1.3}
		s.configureImages(scale, seed, data.CIFARProfile(), fast)
		s.TargetAcc = pick(scale, 0.55, 0.55)
		s.Steps = pick(scale, 20000, 150)
	case data.TaskSpeech:
		s.configureSequences(scale, seed)
		s.Optimizer = hfl.OptimizerSpec{Kind: hfl.OptAdam, LR: 0.001}
		s.TargetAcc = pick(scale, 0.85, 0.75)
		s.Steps = pick(scale, 10000, 150)
	default:
		panic(fmt.Sprintf("experiments: unknown task %q", task))
	}
	return s
}

func pick[T any](scale Scale, paper, fast T) T {
	if scale == Paper {
		return paper
	}
	return fast
}

func (s *TaskSetup) configureImages(scale Scale, seed int64, paperProf, fastProf data.ImageProfile) {
	prof := paperProf
	if scale == Fast {
		prof = fastProf
	}
	trainN := s.Devices * s.PerDevice * 2
	testN := pick(scale, 2000, 400)
	s.Train = data.GenerateImagesSplit(prof, trainN, seed, seed)
	s.Test = data.GenerateImagesSplit(prof, testN, seed, seed+1_000_003)
	classes := prof.Classes
	if scale == Paper {
		// Paper architectures: 2-conv CNN for MNIST/EMNIST, 3-conv for CIFAR.
		if prof.C == 3 {
			s.Factory = func(rng *tensor.RNG) *nn.Network {
				return nn.NewCNN3(nn.CNN3Config{InC: prof.C, H: prof.H, W: prof.W, Classes: classes, C1: 8, C2: 16, C3: 32, Hidden: 64}, rng)
			}
		} else {
			s.Factory = func(rng *tensor.RNG) *nn.Network {
				return nn.NewCNN2(nn.CNN2Config{InC: prof.C, H: prof.H, W: prof.W, Classes: classes, C1: 8, C2: 16, Hidden: 64}, rng)
			}
		}
		return
	}
	// Fast scale keeps the architecture family but narrows it.
	if prof.C == 3 {
		s.Factory = func(rng *tensor.RNG) *nn.Network {
			return nn.NewCNN3(nn.CNN3Config{InC: prof.C, H: prof.H, W: prof.W, Classes: classes, C1: 4, C2: 6, C3: 8, Hidden: 24}, rng)
		}
	} else {
		s.Factory = func(rng *tensor.RNG) *nn.Network {
			return nn.NewCNN2(nn.CNN2Config{InC: prof.C, H: prof.H, W: prof.W, Classes: classes, C1: 4, C2: 8, Hidden: 24}, rng)
		}
	}
}

func (s *TaskSetup) configureSequences(scale Scale, seed int64) {
	prof := data.SpeechProfile()
	if scale == Fast {
		prof = data.FastSequenceProfile(10)
	}
	trainN := s.Devices * s.PerDevice * 2
	testN := pick(scale, 2000, 400)
	s.Train = data.GenerateSequencesSplit(prof, trainN, seed, seed)
	s.Test = data.GenerateSequencesSplit(prof, testN, seed, seed+1_000_003)
	classes := prof.Classes
	l := prof.L
	widths := pick(scale, [4]int{8, 16, 32, 64}, [4]int{4, 6, 8, 24})
	s.Factory = func(rng *tensor.RNG) *nn.Network {
		return nn.NewSeqCNN(nn.SeqCNNConfig{L: l, Classes: classes, C1: widths[0], C2: widths[1], C3: widths[2], Hidden: widths[3]}, rng)
	}
}

// NewScaleSetup builds a population-scale setup: the Fast corpus and
// model family (so dataset and network memory stay bounded by the
// corpus, not the population) with the topology overridden to the given
// device/edge counts and the shared-window partition enabled. Zero
// overrides keep the Fast defaults. Pair the resulting Config with
// hfl.Config.LazyStore/ResidentCap so per-round cost scales with the
// cohort — this is the middlesim -exp scale path and the million-device
// gate, TestGateMillionDevices.
func NewScaleSetup(task data.TaskName, seed int64, devices, edges, k, tc int) *TaskSetup {
	s := NewTaskSetup(task, Fast, seed)
	if devices > 0 {
		s.Devices = devices
	}
	if edges > 0 {
		s.Edges = edges
	}
	if k > 0 {
		s.K = k
	}
	if tc > 0 {
		s.Tc = tc
	}
	s.SharedPartition = true
	return s
}

// Config assembles the hfl.Config for this setup with the given horizon
// override (0 = the setup's default Steps).
func (s *TaskSetup) Config(seed int64, steps int) hfl.Config {
	if steps <= 0 {
		steps = s.Steps
	}
	return hfl.Config{
		Seed:          seed,
		K:             s.K,
		LocalSteps:    s.I,
		CloudInterval: s.Tc,
		BatchSize:     s.BatchSize,
		Steps:         steps,
		EvalEvery:     s.EvalEvery,
		EvalSamples:   0,
		Optimizer:     s.Optimizer,
		Obs:           s.Obs,
		Events:        s.Events,
		Trace:         s.Trace,
	}
}

// Accuracy measures a model vector's accuracy over the whole test set:
// the deployment's end-of-run quality line, in middled's cloud role and
// the -exp scale deployment alike. seed draws the network the vector is
// loaded into, which the vector then overwrites.
func (s *TaskSetup) Accuracy(seed int64, vec []float64) float64 {
	if s.Test == nil || s.Test.Len() == 0 {
		return 0
	}
	net := s.Factory(tensor.Split(seed, 77))
	net.SetParamVector(vec)
	correct := 0.0
	for lo := 0; lo < s.Test.Len(); lo += 256 {
		hi := min(lo+256, s.Test.Len())
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y := s.Test.Batch(idx)
		correct += nn.Accuracy(net.Forward(x, false), y) * float64(len(y))
	}
	return correct / float64(s.Test.Len())
}

// Partition builds the §6.1.2 Non-IID shards: per-device major class
// with MajorFrac of the samples, clustered by initial edge so the data
// distribution correlates with geography (the setting in which Non-IID
// across edges persists under realistic, locality-preserving mobility).
func (s *TaskSetup) Partition(seed int64) *data.Partition {
	if s.SharedPartition {
		return data.PartitionShared(s.Train, s.Devices, s.PerDevice, seed)
	}
	return data.PartitionMajorClassClustered(s.Train, s.Devices, s.PerDevice, s.MajorFrac, s.Edges, seed)
}

// Mobility builds the evaluation mobility model: a locality-preserving
// ring-Markov walk with global mobility p. Real traces (the paper uses
// the ONE simulator) move devices between neighbouring cells; uniform
// teleporting would wash out the edge-level Non-IID within a few steps.
func (s *TaskSetup) Mobility(p float64, seed int64) mobility.Model {
	return mobility.NewMarkovRing(s.Edges, s.Devices, p, seed)
}
