package fednet

// Live migration tests: a moving device arrives warm by registering at its
// new edge with its own state. Under clean conditions the destination
// adopts it and the first training there resumes the device's optimizer;
// under device→edge faults every mover still arrives somewhere; disabled,
// no carried model reaches an edge and no device keeps its moments.

import (
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
	"middle/internal/tensor"
)

func migrationClusterConfig(t *testing.T, rounds int, mob mobility.Model) ClusterConfig {
	t.Helper()
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 400, 5, 5)
	part := data.PartitionMajorClass(train, mob.NumDevices(), 30, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(train.SampleSize(), 16, rng),
			nn.NewReLU(),
			nn.NewLinear(16, train.Classes, rng),
		)
	}
	return ClusterConfig{
		Rounds: rounds, K: 2, LocalSteps: 2, BatchSize: 8, CloudInterval: 3,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 1,
		LiveMigration: true,
	}
}

func migrationCounts(reg *obs.Registry) (ok, fallback, rejected int) {
	return int(reg.Counter("fednet_migrations_total", "outcome", "ok").Value()),
		int(reg.Counter("fednet_migrations_total", "outcome", "fallback").Value()),
		int(reg.Counter("fednet_migrations_total", "outcome", "rejected").Value())
}

// warmAudit is a mobility model that counts, at every round boundary, the
// devices whose edge holds a model they carried in rather than trained
// there — warm arrivals the edge adopted — and the cached models that are
// not finite.
type warmAudit struct {
	mobility.Model
	cluster         atomic.Pointer[Cluster]
	warm, nonFinite int // touched only by the goroutine calling Step
}

func (a *warmAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		for i := range c.edges {
			e := c.edgeAt(i)
			e.mu.Lock()
			for _, d := range e.devices {
				if d.lastModel != nil && !d.trainedHere {
					a.warm++
				}
				if !robust.IsFinite(d.lastModel) {
					a.nonFinite++
				}
			}
			e.mu.Unlock()
		}
	}
	return a.Model.Step()
}

// runAudited starts cfg with its mobility wrapped in a warmAudit and waits
// for the run to end.
func runAudited(t *testing.T, cfg ClusterConfig) (*Cluster, *warmAudit) {
	t.Helper()
	audit := &warmAudit{Model: cfg.Mobility}
	cfg.Mobility = audit
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit.cluster.Store(c)
	if err := c.Wait(); err != nil {
		t.Fatalf("run failed with a real error: %v", err)
	}
	return c, audit
}

// TestClusterLiveMigrationResume is the live-migration acceptance test:
// under high mobility, at any group size, movers arrive warm — the edges
// adopt the models they carry, the metric agrees with Cluster.Migrations,
// nothing is refused — and a warm arrival's first training resumes the
// device's optimizer: the trace, valid as a whole, holds device_train spans
// with both moved and resume set.
func TestClusterLiveMigrationResume(t *testing.T) {
	for _, group := range []int{1, 3} {
		cfg := migrationClusterConfig(t, 12, mobility.NewMarkovRing(3, 9, 0.5, 7))
		reg, trace := obs.NewRegistry(), obs.NewTrace(0)
		cfg.Obs, cfg.Trace, cfg.Mux = reg, trace, group
		c, audit := runAudited(t, cfg)
		if !robust.IsFinite(c.GlobalModel()) {
			t.Fatalf("group of %d: global model not finite", group)
		}

		ok, fallback, rejected := c.Migrations()
		if ok == 0 || fallback+rejected != 0 || audit.warm == 0 {
			t.Fatalf("group of %d: %d ok, %d fallback, %d rejected, %d warm at boundaries; want all warm",
				group, ok, fallback, rejected, audit.warm)
		}
		if mok, mfb, mrej := migrationCounts(reg); mok != ok || mfb != fallback || mrej != rejected {
			t.Fatalf("fednet_migrations_total %d/%d/%d, Cluster.Migrations %d/%d/%d", mok, mfb, mrej, ok, fallback, rejected)
		}
		events := trace.Events()
		if err := obs.ValidateTraceEvents(events); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		resumes := 0
		for _, e := range events {
			moved, _ := e.Args["moved"].(bool)
			resume, _ := e.Args["resume"].(bool)
			if e.Name == "device_train" && resume {
				if !moved {
					t.Fatalf("device_train %v resumed without moving", e.Args)
				}
				resumes++
			}
		}
		if resumes == 0 {
			t.Fatalf("group of %d: %d warm arrivals but no device_train resumed", group, ok)
		}
		t.Logf("group of %d: %d warm arrivals, %d resumed trainings", group, ok, resumes)
	}
}

// TestClusterMigrationChaos moves devices warm while the device→edge link
// drops, corrupts, partitions and NaN-rewrites frames, at a validating
// cluster. The run completes with a finite global model, no mover is
// stranded, some warm arrivals are adopted, and no edge ever caches a
// model the link rewrote to NaN, carried in or replied.
func TestClusterMigrationChaos(t *testing.T) {
	cfg := migrationClusterConfig(t, 8, mobility.NewMarkovRing(3, 9, 0.5, 7))
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.Timeout = 100 * time.Millisecond
	cfg.RoundDeadline = 60 * time.Millisecond
	cfg.Validate = robust.ValidatorConfig{Enabled: true}
	cfg.Faults = &FaultConfig{
		Seed:          42,
		DeviceEdge:    FaultRates{Drop: 0.02, Corrupt: 0.03, Partition: 0.02, NaNUpdate: 0.1},
		PartitionMsgs: 1,
	}
	c, audit := runAudited(t, cfg)
	if !robust.IsFinite(c.GlobalModel()) {
		t.Fatal("global model not finite after device→edge chaos")
	}

	injected := int64(0)
	for _, kind := range []string{"drop", "corrupt", "partition", "nan"} {
		injected += reg.Counter("fednet_injected_faults_total", "kind", kind).Value()
	}
	ok, fallback, rejected := c.Migrations()
	if injected == 0 || ok == 0 || audit.warm == 0 {
		t.Fatalf("%d faults injected, %d warm arrivals adopted (%d warm at boundaries); want both > 0", injected, ok, audit.warm)
	}
	if s := c.Stranded(); len(s) != 0 {
		t.Fatalf("devices stranded under device→edge faults: %v", s)
	}
	if audit.nonFinite != 0 {
		t.Fatalf("edges cached %d non-finite device models at round boundaries", audit.nonFinite)
	}
	t.Logf("%d faults: %d ok / %d fallback / %d rejected arrivals, %d tolerated component failures",
		injected, ok, fallback, rejected, c.ToleratedFaults())
}

// TestClusterMigrationDisabledInert pins the default path: without
// LiveMigration no migration is counted or timed, no edge ever holds a
// model a device carried in, and no device keeps optimizer moments.
func TestClusterMigrationDisabledInert(t *testing.T) {
	cfg := migrationClusterConfig(t, 9, mobility.NewMarkovRing(3, 9, 0.5, 7))
	cfg.LiveMigration = false
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, audit := runAudited(t, cfg)
	ok, fallback, rejected := c.Migrations()
	mok, mfb, mrej := migrationCounts(reg)
	if ok+fallback+rejected+mok+mfb+mrej != 0 {
		t.Fatalf("migrations counted with LiveMigration off: %d/%d/%d, metric %d/%d/%d", ok, fallback, rejected, mok, mfb, mrej)
	}
	if audit.warm != 0 {
		t.Fatalf("%d carried models adopted at round boundaries with LiveMigration off", audit.warm)
	}
	for _, mx := range c.clients {
		for id, v := range mx.virts {
			if v.kept.steps != 0 || v.kept.flat != nil {
				t.Fatalf("device %d kept %d-step moments with LiveMigration off", id, v.kept.steps)
			}
		}
	}
}

// TestEdgeResumeUsedUpByFirstTraining pins the optimizer resume on the
// device: two devices of one client arrive warm at an edge in sync era 1.
// Device 5 last trained in round 1, so its first training there keeps its
// carried model and imports the moments it kept; device 6 last trained in
// round 0, before the sync, so it resets and imports nothing. A later
// training never imports.
func TestEdgeResumeUsedUpByFirstTraining(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second, LiveMigration: true,
	})
	mx := trainableClient(t, 8, 5, 6)
	defer mx.Disconnect()
	rec := &importRecorder{Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9}.New()}
	mx.compute.Opt = rec
	model := mx.compute.Net.ParamVector()

	// A sync at round 1 puts the edge in sync era 1 with a model the
	// devices can train.
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1, Sync: true}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, model); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the edge to install the global model", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		return len(edge.edgeModel) == len(model)
	})
	// Both devices trained at edge 1 before moving: 5 in round 1, 6 in round 0.
	for id, round := range map[int]int{5: 1, 6: 0} {
		if _, _, err := mx.train(TrainRequest{Round: round, DeviceID: id, WantMoments: true}, model, 1); err != nil {
			t.Fatal(err)
		}
		mx.unpin(id)
		if err := mx.ConnectRehome(id, 0, edge.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := edge.arrival(id); got != "ok" {
			t.Fatalf("device %d arrived %q, want ok", id, got)
		}
	}
	mx.mu.Lock()
	kept5 := append([]float64(nil), mx.virts[5].kept.flat...)
	mx.mu.Unlock()
	mx.trainMu.Lock()
	rec.imports = nil
	mx.trainMu.Unlock()

	for round := 2; round <= 3; round++ {
		if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: round}, nil); err != nil {
			t.Fatal(err)
		}
		var done RoundDone
		if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone || done.Trained != 2 {
			t.Fatalf("round %d done: type %d, %+v, %v", round, mt, done, err)
		}
		mx.trainMu.Lock()
		imports := rec.imports
		rec.imports = nil
		mx.trainMu.Unlock()
		want := map[int]int{2: 1, 3: 0}[round]
		if len(imports) != want {
			t.Fatalf("round %d: %d imports, want %d", round, len(imports), want)
		}
		if want == 1 && !sameBits(imports[0].flat, kept5) {
			t.Fatal("the resume imported moments other than device 5's own")
		}
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestEdgeScreensWarmPayload registers devices warm at a validating edge.
// A carried model the link rewrote to NaN is screened like a train reply:
// refused, so it never reaches Eq. 12's scores, and the device arrives cold
// with its refusal on record. A finite one is adopted with its round.
func TestEdgeScreensWarmPayload(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 1, Strategy: core.NewMiddle(), Seed: 1, Timeout: 3 * time.Second,
		Validate: robust.ValidatorConfig{Enabled: true},
	})
	dev, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	dev.SetDeadline(time.Now().Add(5 * time.Second))
	for id, payload := range map[int][]float64{5: {1, math.NaN(), 3}, 6: {0.5, 0.5, 0.5}} {
		reg := RegisterMux{Devices: []RegisterDevice{{DeviceID: id, DataSize: 10, PrevEdge: 1, Rehome: true, Utility: 2, LastTrained: 4}}}
		if err := WriteMsg(dev, MsgRegisterMux, reg, payload); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := ReadMsg(dev, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
			t.Fatalf("register ack: type %d, %v", mt, err)
		}
	}
	edge.mu.Lock()
	view := &edgeView{edge: edge}
	nan, fine := edge.devices[5], edge.devices[6]
	if !robust.IsFinite(view.LocalModel(5)) || nan.lastModel != nil || nan.lastTrained != -1 || !math.IsNaN(nan.statUtil) {
		t.Errorf("NaN payload adopted: model %v, last trained %d, utility %v", nan.lastModel, nan.lastTrained, nan.statUtil)
	}
	if !sameBits(fine.lastModel, []float64{0.5, 0.5, 0.5}) || fine.lastTrained != 4 || fine.statUtil != 2 {
		t.Errorf("finite payload not adopted: model %v, last trained %d, utility %v", fine.lastModel, fine.lastTrained, fine.statUtil)
	}
	edge.mu.Unlock()
	if got := edge.arrival(5); got != "rejected" {
		t.Errorf("NaN warm registration arrived %q, want rejected", got)
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}
