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
// devices present — and checks each optimizer state a trainer of the
// cluster's pool imported during that round: it is the state exactly one
// device kept at the boundary before, that device trained in the round and
// had moved since its last training, and no other import that round was
// its state.
type churnAudit struct {
	mobility.Model
	t       *testing.T
	k       int
	cluster atomic.Pointer[Cluster]

	// Touched only by the goroutine calling Step.
	edges       []int               // the membership Step returned last
	moved       map[int]bool        // devices moved since their last audited training
	started     bool                // the cluster is set and a boundary was audited
	trained0    int                 // trainings before the first audited boundary
	owed        int                 // trainings the audited rounds owed
	rounds      []int               // each device's trainings at the last boundary
	kept        map[int]keptMoments // each device's kept state at the last boundary
	imports     int                 // imports matched to a device's kept state
	afterOthers int                 // of those, imports after another training on the trainer in the round
}

func (a *churnAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		a.audit(c)
	}
	next := a.Model.Step()
	if a.moved == nil {
		a.moved = map[int]bool{}
	}
	for id, e := range next {
		if a.edges != nil && a.edges[id] != e {
			a.moved[id] = true
		}
	}
	a.edges = append(a.edges[:0], next...)
	return next
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
	rounds := c.DeviceRounds()
	if !a.started {
		a.started, a.trained0 = true, trainedTotal(c)
	} else {
		a.owed += owed
	}
	imported := map[int]bool{}
	c.fleet.clients[0].cfg.pool.each(func(tw *hfl.Trainer) {
		rec := tw.Opt.(*importRecorder)
		for _, im := range rec.imports {
			if a.kept == nil {
				continue // imports of rounds before the first boundary audited
			}
			var owners []int
			for id, k := range a.kept {
				if k.steps == im.steps && sameBits(k.flat, im.flat) {
					owners = append(owners, id)
				}
			}
			if len(owners) != 1 {
				a.t.Errorf("a device imported %d-step optimizer state that %d devices kept, want exactly one", im.steps, len(owners))
				continue
			}
			id := owners[0]
			switch {
			case rounds[id] == a.rounds[id]:
				a.t.Errorf("device %d's kept state was imported in a round it did not train in", id)
			case !a.moved[id]:
				a.t.Errorf("device %d's kept state was imported but it had not moved since its last training", id)
			case imported[id]:
				a.t.Errorf("device %d's kept state was imported twice in one round", id)
			}
			imported[id] = true
			a.imports++
			if im.after > 0 {
				a.afterOthers++
			}
		}
		rec.imports, rec.trainings = nil, 0
	})
	for id, n := range rounds {
		if a.rounds != nil && n != a.rounds[id] {
			delete(a.moved, id)
		}
	}
	a.rounds = rounds
	kept := map[int]keptMoments{}
	for _, mx := range c.fleet.clients {
		mx.mu.Lock()
		for _, d := range mx.cfg.Devices {
			v := mx.virts[d.DeviceID]
			kept[d.DeviceID] = keptMoments{flat: append([]float64(nil), v.kept.flat...), steps: v.kept.steps}
		}
		mx.mu.Unlock()
	}
	a.kept = kept
}

func trainedTotal(c *Cluster) int {
	n := 0
	for _, r := range c.DeviceRounds() {
		n += r
	}
	return n
}

// importRecorder is a trainer's optimizer that records every state it is
// handed to import, and how many trainings began on it before that in the
// round: each begins with a Reset or an import.
type importRecorder struct {
	optim.Optimizer
	trainings int
	imports   []recordedImport
}

type recordedImport struct {
	flat         []float64
	steps, after int
}

func (r *importRecorder) Reset() {
	r.trainings++
	r.Optimizer.Reset()
}

func (r *importRecorder) ExportMoments() ([]float64, []int, int) {
	return r.Optimizer.(optim.MomentExporter).ExportMoments()
}

func (r *importRecorder) ExportMomentsInto(flat []float64, lens []int) ([]float64, []int, int) {
	return r.Optimizer.(optim.MomentExporter).ExportMomentsInto(flat, lens)
}

func (r *importRecorder) ImportMoments(flat []float64, lens []int, steps int) bool {
	r.imports = append(r.imports, recordedImport{flat: append([]float64(nil), flat...), steps: steps, after: r.trainings})
	r.trainings++
	return r.Optimizer.(optim.MomentExporter).ImportMoments(flat, lens, steps)
}

// TestClusterChurnMembership is the churn regime at tier-1 size: four
// edges, 24 devices moving with P = 0.3, live migration. A device that
// leaves an edge is off its candidate set at once, so no train RPC is ever
// retried and every selected device trains — Σ DeviceRounds is exactly
// what the registered sets owed, no reply dropped, which with the edge's
// length check also means every reply carried exactly the model's values.
// Resumes import the state the device itself kept, bit for bit, also when
// another device trained on the same pooled trainer in between: the
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
		pool.each(func(tw *hfl.Trainer) { tw.Opt = &importRecorder{Optimizer: tw.Opt} })
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
		if audit.imports == 0 || audit.afterOthers == 0 {
			t.Errorf("group of %d: %d resumes checked, %d after another training on the trainer; want both > 0",
				group, audit.imports, audit.afterOthers)
		}
		t.Logf("group of %d: %d trainings owed and done, %d handovers, %d resumes (%d after another training on the trainer)",
			group, audit.owed, ok, audit.imports, audit.afterOthers)
	}
}
