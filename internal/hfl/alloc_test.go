//go:build !race

package hfl

import (
	"runtime"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/tensor"
)

// The race detector's shadow bookkeeping allocates on its own, so byte
// budgets hold only without it.

// allocated returns the heap bytes fn allocates (on any goroutine).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// emnistCNN is the network of the benchmark's sim_tta workload: the
// paper's CNN2 on 28×28 inputs, 55,354 parameters (443 KB as a vector).
func emnistCNN(rng *tensor.RNG) *nn.Network {
	return nn.NewCNN2(nn.CNN2Config{InC: 1, H: 28, W: 28, Classes: 26, C1: 8, C2: 16, Hidden: 64}, rng)
}

// allocBudget is what a steady-state evaluation may allocate: tensor
// headers and an argmax per chunk — nothing the size of a batch (100 KB),
// an activation or a model.
const allocBudget = 64 << 10

// localRoundBudget is what a steady-state local round may allocate: the
// layers' views, the loss gradient and the per-sample losses are reused
// scratch, so nothing is left to allocate per step; the budget is slack.
const localRoundBudget = 1 << 10

// TestLocalRoundSteadyStateAllocs: after its first call has grown the
// trainer's batch storage, its loss scratch and the layers' scratch, a
// local round stays inside localRoundBudget at sim_tta's shape (CNN2, 5
// steps of 16 samples) and at net_steady's (the 784-64-26 MLP, 2 steps of
// 16), on a generator re-seeded in place as both engines do. It allocated
// 1.8 MB per call when every step drew a fresh batch tensor, and 23 KB
// (CNN2) and 7.7 KB (MLP) while every step built a softmax tensor, a
// per-sample loss slice and the views' headers.
func TestLocalRoundSteadyStateAllocs(t *testing.T) {
	ds := data.GenerateImagesSplit(data.EMNISTProfile(), 200, 1, 2)
	shard := ds.All()
	mlp := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(784, 64, rng), nn.NewReLU(), nn.NewLinear(64, 26, rng))
	}
	for _, c := range []struct {
		name  string
		net   func(*tensor.RNG) *nn.Network
		steps int
	}{{"CNN2", emnistCNN, 5}, {"MLP", mlp, 2}} {
		tw := &Trainer{Net: c.net(tensor.NewRNG(1)), Opt: OptimizerSpec{Kind: OptSGDMomentum, LR: 0.01, Momentum: 0.9}.New()}
		vec := tw.Net.ParamVector()
		rng := tensor.NewRNG(3)
		seed := int64(0)
		round := func() {
			seed++
			rng.Reseed(3, seed)
			tw.LocalRound(ds, shard, c.steps, 16, rng, vec, vec)
		}
		round()
		// The budget is judged on the least of three rounds: allocated
		// counts every goroutine's bytes, and the runtime starting an OS
		// thread during one round (5,504 B here) is not the trainer's,
		// while an allocation of the round's own shows in all three.
		least := min(allocated(round), allocated(round), allocated(round))
		if least > localRoundBudget {
			t.Fatalf("%s: each of three local rounds after the first allocated at least %d bytes, budget %d", c.name, least, localRoundBudget)
		}
	}
}

// TestEvaluateVectorSteadyStateAllocs: the ragged last chunk of a test
// set whose size is no multiple of the chunk (here twenty-five chunks of
// 8, the training batch, and one of 4) is served from the front of the
// same grow-only scratch, so a second evaluation stays inside allocBudget
// where exact-size scratch reallocated every layer buffer on the way
// down to 4 samples and again on the way back up.
func TestEvaluateVectorSteadyStateAllocs(t *testing.T) {
	f := emnistFixture(204)
	s := New(smallConfig(), emnistCNN, f.part, f.test, f.mob, middleLike{})
	first, _ := s.EvaluateVector(s.cloud, 0, false)
	var second float64
	if got := allocated(func() { second, _ = s.EvaluateVector(s.cloud, 0, false) }); got > allocBudget {
		t.Fatalf("second evaluation of 204 samples allocated %d bytes, budget %d", got, allocBudget)
	}
	if first != second {
		t.Fatalf("same model evaluated to %v, then to %v", first, second)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWorkerScratchSizedByTrainingBatch: at sim_tta's shape (one worker,
// 5 steps of 16 samples, 520 evaluation samples) everything a simulator
// adds to the heap — its worker's network with all layer scratch, the
// batch storage, and this small federation's eleven model vectors (5 MB)
// — stays under 20 MB. The worker alone held 54 MB while the convolution
// layers lowered a whole 64-sample evaluation chunk at once; now their
// scratch is a sample's columns in evaluation, a training batch's in
// training, and evaluation chunks are no larger than a training batch.
func TestWorkerScratchSizedByTrainingBatch(t *testing.T) {
	f := emnistFixture(520)
	cfg := smallConfig()
	cfg.Parallelism, cfg.LocalSteps, cfg.BatchSize = 1, 5, 16
	before := liveHeap()
	s := New(cfg, emnistCNN, f.part, f.test, f.mob, middleLike{})
	s.StepOnce()
	s.EvaluateVector(s.cloud, 0, false)
	if held := int64(liveHeap()) - int64(before); held > 20<<20 {
		t.Fatalf("a simulator with one worker holds %d MB after a round and an evaluation, want at most 20", held>>20)
	}
	if got, batch := cap(s.trainers[0].x.Data), cfg.BatchSize*f.test.SampleSize(); got > batch {
		t.Fatalf("the worker's batch storage grew to %d values, a training batch has %d: an evaluation chunk outgrew it", got, batch)
	}
	runtime.KeepAlive(f)
}

// emnistFixture is a small federation on the EMNIST profile: 8 devices
// of 10 samples on 2 edges under mobility 0.5, and a test set of testN.
func emnistFixture(testN int) fixture {
	prof := data.EMNISTProfile()
	train := data.GenerateImagesSplit(prof, 120, 1, 2)
	return fixture{
		part: data.PartitionMajorClass(train, 8, 10, 0.85, 6),
		test: data.GenerateImagesSplit(prof, testN, 1, 3),
		mob:  mobility.NewMarkov(2, 8, 0.5, 7),
	}
}

// TestStepOnceAllocsBoundedByBlends: with strategies returning the view's
// own vectors, the only model-sized allocation left in a step is the
// Eq. 9 blend of a device that moved and was selected (InitLocal has no
// destination parameter to blend into). Twenty warm steps of a MIDDLE-
// shaped run allocate at most one model vector per such device plus a
// slack per training and per step — RNG streams, selection results,
// history points, tensor headers — that is a fourteenth of a model. A
// clone for every trained device that stayed, which is what those start
// vectors used to cost, would nearly double the total.
func TestStepOnceAllocsBoundedByBlends(t *testing.T) {
	f := emnistFixture(72)
	cfg := smallConfig()
	cfg.LocalSteps, cfg.BatchSize = 1, 4
	s := New(cfg, emnistCNN, f.part, f.test, f.mob, middleLike{})
	for i := 0; i < 10; i++ {
		s.StepOnce()
	}
	const steps, slack = 20, 32 << 10
	// recordBlend fires exactly once per selected device that moved.
	blendsBefore, trained := s.tel.blendUtilN, 0
	got := allocated(func() {
		for i := 0; i < steps; i++ {
			s.StepOnce()
			trained += len(s.jobs)
		}
	})
	blends := int(s.tel.blendUtilN - blendsBefore)
	if blends == 0 || 2*blends > trained {
		t.Fatalf("%d of %d trained devices had moved: the run does not separate blends from trainings", blends, trained)
	}
	modelBytes := uint64(8 * len(s.cloud))
	budget := uint64(blends)*modelBytes + uint64(trained+steps)*slack
	if got > budget {
		t.Fatalf("%d steps allocated %d bytes; %d blends × %d-byte model + slack allow %d (%d devices trained)",
			steps, got, blends, modelBytes, budget, trained)
	}
}
