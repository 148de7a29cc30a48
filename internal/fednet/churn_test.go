package fednet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// churnAudit is the mobility model of TestClusterChurnMembership. At each
// round boundary, when no edge is in a round, it checks that every device
// is registered at exactly one edge, adds up the trainings the round just
// ended owed — min(K, members) per edge, what Eq. 12 selects from the
// devices present — and checks that every training of that round began by
// resetting a trainer's optimizer: a mover carries its model, nothing of
// the optimizer.
type churnAudit struct {
	mobility.Model
	t       *testing.T
	k       int
	cluster atomic.Pointer[Cluster]

	// Touched only by the goroutine calling Step.
	started  bool // the cluster is set and a boundary was audited
	trained0 int  // trainings before the first audited boundary
	owed     int  // trainings the audited rounds owed
	trained  int  // trainings at the last audited boundary
	resets   int  // optimizer resets in the audited rounds
}

func (a *churnAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		a.audit(c)
	}
	return a.Model.Step()
}

func (a *churnAudit) audit(c *Cluster) {
	edgeOf := map[int]int{}
	owed := 0
	for i := range c.edges {
		ids := registered(c.edgeAt(i))
		owed += min(a.k, len(ids))
		for id := range ids {
			if other, twice := edgeOf[id]; twice {
				a.t.Errorf("device %d registered at edges %d and %d at once", id, other, i)
			}
			edgeOf[id] = i
		}
	}
	if len(edgeOf) != c.fleet.cfg.Mobility.NumDevices() {
		a.t.Errorf("%d of %d devices registered at a round boundary", len(edgeOf), c.fleet.cfg.Mobility.NumDevices())
	}
	resets := 0
	c.fleet.clients[0].cfg.pool.each(func(tw *hfl.Trainer) {
		rec := tw.Opt.(*resetCounter)
		resets, rec.resets = resets+rec.resets, 0
	})
	trained := trainedTotal(c)
	if !a.started {
		a.started, a.trained0 = true, trained
	} else {
		a.owed += owed
		a.resets += resets
		if resets != trained-a.trained {
			a.t.Errorf("%d trainings in a round reset the optimizer %d times, want once each", trained-a.trained, resets)
		}
	}
	a.trained = trained
}

func trainedTotal(c *Cluster) int {
	n := 0
	for _, r := range c.DeviceRounds() {
		n += r
	}
	return n
}

// resetCounter is a trainer's optimizer that counts its Resets: each
// training begins with one.
type resetCounter struct {
	optim.Optimizer
	resets int
}

func (r *resetCounter) Reset() {
	r.resets++
	r.Optimizer.Reset()
}

// TestClusterChurnMembership is the churn regime at tier-1 size: four
// edges, 24 devices moving with P = 0.3, live migration. A device that
// leaves an edge is off its candidate set at once, so no train RPC is ever
// retried and every selected device trains — Σ DeviceRounds is exactly
// what the registered sets owed, no reply dropped, which with the edge's
// length check also means every reply carried exactly the model's values.
// Every training resets its pooled trainer's optimizer, movers' too: the
// cluster runs at GOMAXPROCS 2, so its pool has two trainers for up to
// sixteen trainings a round on any machine.
func TestClusterChurnMembership(t *testing.T) {
	const edges, devices, k, rounds, procs = 4, 24, 4, 20, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 480, 5, 5)
	part := data.PartitionMajorClass(train, devices, 20, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), 8, rng), nn.NewReLU(), nn.NewLinear(8, train.Classes, rng))
	}
	for _, group := range []int{1, 3} {
		reg := obs.NewRegistry()
		audit := &churnAudit{Model: mobility.NewMarkovRing(edges, devices, 0.3, 7), t: t, k: k}
		c, err := StartCluster(ClusterConfig{
			Rounds: rounds, K: k, LocalSteps: 2, BatchSize: 8, CloudInterval: 5,
			Strategy: core.NewMiddle(), Partition: part, Factory: factory,
			Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
			Mobility:  audit, Seed: 1, Mux: group, LiveMigration: true, Obs: reg,
			Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool := c.fleet.clients[0].cfg.pool
		pool.each(func(tw *hfl.Trainer) { tw.Opt = &resetCounter{Optimizer: tw.Opt} })
		audit.cluster.Store(c)
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("fednet_retries_total").Value(); got != 0 {
			t.Errorf("group of %d: %d retries, want 0", group, got)
		}
		if got := reg.Counter("fednet_device_drops_total").Value(); got != 0 {
			t.Errorf("group of %d: %d train RPCs failed, want 0", group, got)
		}
		if got := trainedTotal(c) - audit.trained0; got != audit.owed || got == 0 {
			t.Errorf("group of %d: devices trained %d times in the audited rounds, the registered sets owed %d", group, got, audit.owed)
		}
		ok, fallback, rejected := c.Migrations()
		if ok == 0 || fallback+rejected != 0 {
			t.Errorf("group of %d: handovers %d ok, %d fallback, %d rejected; want all ok", group, ok, fallback, rejected)
		}
		if cap(pool) != procs {
			t.Fatalf("group of %d: the pool holds %d trainers at GOMAXPROCS %d", group, cap(pool), procs)
		}
		if audit.resets != audit.owed {
			t.Errorf("group of %d: %d optimizer resets for %d trainings", group, audit.resets, audit.owed)
		}
		t.Logf("group of %d: %d trainings owed and done, %d handovers", group, audit.owed, ok)
	}
}
