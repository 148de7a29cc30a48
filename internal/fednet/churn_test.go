package fednet

import (
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
// devices present — and checks the optimizer state each client imported
// during that round against what its devices kept at the boundary before.
type churnAudit struct {
	mobility.Model
	t       *testing.T
	k       int
	cluster atomic.Pointer[Cluster]

	// Touched only by the goroutine calling Step once the cluster is set.
	started       bool
	trained0      int                 // trainings before the first audited boundary
	owed          int                 // trainings the audited rounds owed
	kept          map[int]keptMoments // each device's kept state at the last boundary
	imports       int                 // imports matched to a device's kept state
	afterSiblings int                 // of those, imports after a sibling trained in the round
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
	if len(edgeOf) != len(c.assign) {
		a.t.Errorf("%d of %d devices registered at a round boundary", len(edgeOf), len(c.assign))
	}
	if !a.started {
		a.started, a.trained0 = true, trainedTotal(c)
	} else {
		a.owed += owed
	}
	kept := map[int]keptMoments{}
	for _, mx := range c.clients {
		mx.trainMu.Lock()
		rec := mx.compute.Opt.(*importRecorder)
		for _, im := range rec.imports {
			if a.kept == nil {
				continue // imports of rounds before the first boundary audited
			}
			match := false
			for _, d := range mx.cfg.Devices {
				k := a.kept[d.DeviceID]
				match = match || (k.steps == im.steps && sameBits(k.flat, im.flat))
			}
			if !match {
				a.t.Errorf("a device imported %d-step optimizer state that none of its client's devices kept", im.steps)
			}
			a.imports++
			if im.after > 0 {
				a.afterSiblings++
			}
		}
		rec.imports, rec.trainings = nil, 0
		mx.trainMu.Unlock()
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

// importRecorder is a client's optimizer that records every state it is
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
// a sibling trained on the shared optimizer in between (group of 3).
func TestClusterChurnMembership(t *testing.T) {
	const edges, devices, k, rounds = 4, 24, 4, 20
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
		for _, mx := range c.clients {
			mx.trainMu.Lock()
			mx.compute.Opt = &importRecorder{Optimizer: mx.compute.Opt}
			mx.trainMu.Unlock()
		}
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
		if audit.imports == 0 || (group > 1 && audit.afterSiblings == 0) {
			t.Errorf("group of %d: %d resumes checked, %d after a sibling trained; want both > 0 (the latter at group > 1)",
				group, audit.imports, audit.afterSiblings)
		}
		t.Logf("group of %d: %d trainings owed and done, %d handovers, %d resumes (%d after a sibling)",
			group, audit.owed, ok, audit.imports, audit.afterSiblings)
	}
}
