package fednet

import (
	"runtime"
	"sync/atomic"
	"testing"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// each holds every trainer of the pool — waiting for the trainings in
// flight to give theirs back — and calls f on each in turn: the pool's
// exclusive lock, for tests that inspect or swap trainers.
func (p trainerPool) each(f func(tw *hfl.Trainer)) {
	held := make([]*pooledTrainer, cap(p))
	for i := range held {
		held[i] = <-p
	}
	for _, tw := range held {
		f(tw.Trainer)
	}
	for _, tw := range held {
		p <- tw
	}
}

// solo is a pool of one trainer: factory's network and opt.
func solo(factory func(*tensor.RNG) *nn.Network, opt optim.Optimizer) trainerPool {
	return newTrainerPool(1, func() *nn.Network { return factory(tensor.NewRNG(1)) }, func() optim.Optimizer { return opt })
}

// localModel returns a copy of hosted device id's carried model (nil
// before it trained).
func localModel(mx *DeviceMux, id int) []float64 {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	return append([]float64(nil), mx.virts[id].local...)
}

// numParams is the parameter count of the pool's networks.
func (p trainerPool) numParams() (n int) {
	p.each(func(tw *hfl.Trainer) { n = tw.Net.NumParams() })
	return n
}

// TestClusterBuildsOneTrainerPerCore: a 2-edge × 12-device cluster builds
// GOMAXPROCS networks and optimizers, not one per device client, and no
// more than it has devices; every client trains on that one pool.
func TestClusterBuildsOneTrainerPerCore(t *testing.T) {
	const edges, devices = 2, 12
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 16} {
		runtime.GOMAXPROCS(procs)
		want := min(procs, devices)
		var calls atomic.Int32
		cfg := scaleFixtureConfig(t, mobility.NewStatic(edges, devices), 4)
		factory := cfg.Factory
		cfg.Factory = func(rng *tensor.RNG) *nn.Network {
			calls.Add(1)
			return factory(rng)
		}
		c, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int(calls.Load()); got != want {
			t.Errorf("GOMAXPROCS %d: %d devices on %d clients called Factory %d times, want %d", procs, devices, len(c.fleet.clients), got, want)
		}
		pool := c.fleet.clients[0].cfg.pool
		if cap(pool) != want {
			t.Errorf("GOMAXPROCS %d: trainer pool holds %d trainers, want %d", procs, cap(pool), want)
		}
		for i, mx := range c.fleet.clients {
			if mx.cfg.pool != pool {
				t.Fatalf("GOMAXPROCS %d: client %d trains on a pool of its own", procs, i)
			}
		}
		if trained := trainedTotal(c); trained == 0 {
			t.Fatalf("GOMAXPROCS %d: no device trained", procs)
		}
	}
}

// TestSharedTrainerKeepsBits: device B trained on the trainer device A
// (of another client) just used, momentum buffers and all, gives the bits
// B gets on a fresh trainer — and so does B's moved training, which starts
// from the model it carried.
func TestSharedTrainerKeepsBits(t *testing.T) {
	const a, b = 1, 2
	train := data.GenerateImagesSplit(data.FastImageProfile(2), 40, 5, 5)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), 8, rng), nn.NewReLU(), nn.NewLinear(8, train.Classes, rng))
	}
	spec := hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9}
	client := func(id int, indices []int, pool trainerPool) *DeviceMux {
		mx, err := NewDeviceMux(DeviceMuxConfig{
			Devices: []MuxDevice{{DeviceID: id, Indices: indices}}, Dataset: train,
			LocalSteps: 3, BatchSize: 4, Seed: 9, pool: pool, population: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mx
	}
	shared := newTrainerPool(1, func() *nn.Network { return factory(tensor.NewRNG(3)) }, spec.New)
	mxA := client(a, []int{20, 21, 22, 23, 24, 25}, shared)
	mxB := client(b, []int{0, 1, 2, 3, 4, 5, 6, 7}, shared)
	fresh := client(b, []int{0, 1, 2, 3, 4, 5, 6, 7}, solo(factory, spec.New()))

	edgeModel := func(round int) []float64 { return factory(tensor.NewRNG(int64(10 + round))).ParamVector() }
	run := func(mx *DeviceMux, id, round int, moved bool) []float64 {
		t.Helper()
		vec, _, err := mx.train(TrainRequest{Round: round, DeviceID: id, Moved: moved}, edgeModel(round), 0)
		mx.unpin(id)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), vec...)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) == 0 || !sameBits(got, want) {
			t.Fatalf("%s: B on A's trainer differs from B on a fresh trainer", what)
		}
	}

	// Round 1, cold: A trains, then B on the trainer A left warm.
	run(mxA, a, 1, false)
	same("round 1 model", run(mxB, b, 1, false), run(fresh, b, 1, false))

	// Round 2, both moved: each starts from the model it carried.
	run(mxA, a, 2, true)
	same("moved round 2 model", run(mxB, b, 2, true), run(fresh, b, 2, true))
}
