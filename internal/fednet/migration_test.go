package fednet

// Live migration tests: a moving device arrives warm by registering at its
// new edge with its own state. Under clean conditions the destination
// adopts it and the first training there starts from the model the device
// carried; under device→edge faults every mover still arrives somewhere;
// disabled, no carried model reaches an edge.

import (
	"maps"
	"math"
	"net"
	"sync"
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
	"middle/internal/simil"
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

// arrivalAt labels device id's registration at e: "ok" when the edge
// adopted the state it carried, "rejected" when it refused it, "cold"
// when the device carried none and "absent" when it is not registered.
func arrivalAt(e *Edge, id int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.devices[id]
	switch {
	case !ok:
		return "absent"
	case d.warm:
		return "ok"
	case d.refused:
		return "rejected"
	}
	return "cold"
}

// warmAudit is a mobility model that counts, at every round boundary, the
// devices whose edge holds state they carried in rather than trained
// there — warm arrivals the edge adopted — and the stored Eq. 12 scores
// that are not finite; and the moves its steps make.
type warmAudit struct {
	mobility.Model
	cluster                atomic.Pointer[Cluster]
	warm, nonFinite, moves int   // touched only by the goroutine calling Step
	at                     []int // the last step's membership
}

func (a *warmAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		for i := range c.edges {
			e := c.edgeAt(i)
			e.mu.Lock()
			for _, d := range e.devices {
				if d.warm && !d.trainedHere {
					a.warm++
				}
				if !finite(d.drift) {
					a.nonFinite++
				}
			}
			e.mu.Unlock()
		}
	}
	next := a.Model.Step()
	for m, e := range a.at {
		if next[m] != e {
			a.moves++
		}
	}
	a.at = append(a.at[:0], next...)
	return next
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
// nothing is refused — and a warm arrival's first training resumes from
// the model it carried: the trace, valid as a whole, holds device_train
// spans with moved set, and none of them claims an optimizer resume.
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
			if e.Name != "device_train" {
				continue
			}
			if _, ok := e.Args["resume"]; ok {
				t.Fatalf("device_train %v claims an optimizer resume", e.Args)
			}
			if moved, _ := e.Args["moved"].(bool); moved {
				resumes++
			}
		}
		if resumes == 0 {
			t.Fatalf("group of %d: %d warm arrivals but no device_train moved", group, ok)
		}
		t.Logf("group of %d: %d warm arrivals, %d moved trainings", group, ok, resumes)
	}
}

// TestClusterMigrationChaos moves devices warm while the device→edge link
// drops, corrupts, partitions and NaN-rewrites frames, at a validating
// cluster. The run completes with a finite global model, no mover is
// stranded, some warm arrivals are adopted, and no edge ever scores a
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
	// Outcomes count warm registrations: moves and failovers, never a
	// reconnect after a lost connection.
	if n := ok + fallback + rejected; n > audit.moves+c.Rehomed() {
		t.Fatalf("%d migration outcomes counted for %d moves and %d failovers", n, audit.moves, c.Rehomed())
	}
	if audit.nonFinite != 0 {
		t.Fatalf("edges held %d non-finite device scores at round boundaries", audit.nonFinite)
	}
	t.Logf("%d faults: %d ok / %d fallback / %d rejected arrivals, %d tolerated component failures",
		injected, ok, fallback, rejected, c.ToleratedFaults())
}

// TestClusterMigrationDisabledInert pins the default path: without
// LiveMigration movers register cold, so no migration is counted or timed
// and no edge ever holds state a device carried in.
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
		t.Fatalf("%d carried states adopted at round boundaries with LiveMigration off", audit.warm)
	}
}

// TestReconnectIsNoMigration: a device that moved warm and loses its
// connection before training there re-registers at the same edge, cold.
// The move is one migration outcome; the reconnect adds none.
func TestReconnectIsNoMigration(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 1, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second,
	})
	defer func() {
		WriteMsg(cc, MsgShutdown, struct{}{}, nil)
		<-edgeErr
	}()
	mx := trainableClient(t, 8, 5)
	defer mx.Disconnect()
	var model []float64
	mx.cfg.pool.each(func(tw *hfl.Trainer) { model = tw.Net.ParamVector() })
	// Device 5 trained under edge 1, then moves to edge 0 with its state.
	if _, _, err := mx.train(TrainRequest{Round: 2, DeviceID: 5}, model, 1); err != nil {
		t.Fatal(err)
	}
	mx.unpin(5)
	if err := mx.ConnectRehome(5, 0, edge.Addr()); err != nil {
		t.Fatal(err)
	}
	edge.mu.Lock()
	first := edge.devices[5].mux
	outcomes := edge.migrations["ok"] + edge.migrations["rejected"]
	edge.mu.Unlock()
	first.conn.Close()
	waitFor(t, 5*time.Second, "device 5 to reconnect", func() bool {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		d, ok := edge.devices[5]
		return ok && d.mux != first
	})
	edge.mu.Lock()
	defer edge.mu.Unlock()
	if outcomes != 1 || edge.migrations["ok"]+edge.migrations["rejected"] != 1 {
		t.Fatalf("outcomes after the move %d, after the reconnect %v; want 1 and the same", outcomes, edge.migrations)
	}
}

// TestEdgeResumeUsedUpByFirstTraining pins the warm start on the device:
// two devices of one client arrive warm at an edge in sync era 1. Device 5
// last trained in round 2, after the sync, so its first training there is
// Moved without ResetLocal and InitLocal blends the model it carried;
// device 6 last trained in round 1, the sync round itself, which pushed w_c
// down to it too, so it resets and starts cold. A later training of either
// is no move.
func TestEdgeResumeUsedUpByFirstTraining(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second,
	})
	mx := trainableClient(t, 8, 5, 6)
	defer mx.Disconnect()
	spy := &initSpy{Strategy: core.NewMiddle()}
	mx.cfg.Strategy = spy // before the serve loops start
	var model []float64
	mx.cfg.pool.each(func(tw *hfl.Trainer) { model = tw.Net.ParamVector() })

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
	// Both devices trained at edge 1 before moving: 5 in round 2, 6 in round 1.
	for id, round := range map[int]int{5: 2, 6: 1} {
		if _, _, err := mx.train(TrainRequest{Round: round, DeviceID: id}, model, 1); err != nil {
			t.Fatal(err)
		}
		mx.unpin(id)
		if err := mx.ConnectRehome(id, 0, edge.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := arrivalAt(edge, id); got != "ok" {
			t.Fatalf("device %d arrived %q, want ok", id, got)
		}
	}
	spy.mu.Lock()
	spy.warm = nil // the trainings at edge 1
	spy.mu.Unlock()

	for round := 3; round <= 4; round++ {
		if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: round}, nil); err != nil {
			t.Fatal(err)
		}
		var done RoundDone
		if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone || done.Trained != 2 {
			t.Fatalf("round %d done: type %d, %+v, %v", round, mt, done, err)
		}
		spy.mu.Lock()
		warm := spy.warm
		spy.warm = nil
		spy.mu.Unlock()
		want := map[int]map[int]bool{3: {5: true, 6: false}, 4: {5: false, 6: false}}[round]
		if !maps.Equal(warm, want) {
			t.Fatalf("round %d: warm starts %v, want %v", round, warm, want)
		}
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// initSpy records, per device, whether its InitLocal was a warm start:
// moved, with a carried model to blend.
type initSpy struct {
	hfl.Strategy
	mu   sync.Mutex
	warm map[int]bool
}

func (s *initSpy) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	s.mu.Lock()
	if s.warm == nil {
		s.warm = map[int]bool{}
	}
	s.warm[device] = moved && v.LocalModel(device) != nil
	s.mu.Unlock()
	return s.Strategy.InitLocal(v, device, edge, moved)
}

// TestEdgeScreensWarmPayload registers devices warm at a validating edge
// whose w_c is the welcome's (1, 2, 3), in sync era 0. A carried model the
// link rewrote to NaN is screened like a train reply: refused, so it never
// reaches Eq. 12's scores, and the device arrives cold with its refusal on
// record. So are carried scores no model could give. A finite payload is
// adopted with its round and scored on receipt, carried scores are adopted
// as they are, and a model trained before the sync needs neither.
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
	var fineDrift Drift
	fineDrift.U, fineDrift.DeltaNorm = simil.SelectionUtilityNorm([]float64{1, 2, 3}, []float64{0.5, 0.5, 0.5})
	for _, c := range []struct {
		id, lastTrained int
		drift           *Drift
		payload         []float64
		arrived         string
		want            Drift
	}{
		{id: 5, lastTrained: 4, payload: []float64{1, math.NaN(), 3}, arrived: "rejected"},
		{id: 6, lastTrained: 4, payload: []float64{0.5, 0.5, 0.5}, arrived: "ok", want: fineDrift},
		{id: 7, lastTrained: 4, drift: &Drift{U: 1.5, DeltaNorm: 1}, arrived: "rejected"},
		{id: 8, lastTrained: 4, drift: &Drift{U: 0.25, DeltaNorm: 3}, arrived: "ok", want: Drift{U: 0.25, DeltaNorm: 3}},
		{id: 9, lastTrained: 0, arrived: "ok"},
	} {
		rd := RegisterDevice{DeviceID: c.id, DataSize: 10, PrevEdge: 1, Rehome: true, Utility: 2, LastTrained: c.lastTrained, Drift: c.drift}
		if err := WriteMsg(dev, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{rd}}, c.payload); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := ReadMsg(dev, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
			t.Fatalf("register ack: type %d, %v", mt, err)
		}
		edge.mu.Lock()
		d := edge.devices[c.id]
		u, dn, _ := (&edgeView{edge: edge}).DriftInfo(c.id)
		edge.mu.Unlock()
		if c.arrived == "rejected" {
			if d.warm || d.lastTrained != -1 || !math.IsNaN(d.statUtil) || u != 0 || dn != 0 {
				t.Errorf("device %d: refused state adopted: last trained %d, utility %v, scores (%v, %v)", c.id, d.lastTrained, d.statUtil, u, dn)
			}
		} else if !d.warm || d.lastTrained != c.lastTrained || d.statUtil != 2 ||
			math.Float64bits(u) != math.Float64bits(c.want.U) || math.Float64bits(dn) != math.Float64bits(c.want.DeltaNorm) {
			t.Errorf("device %d: last trained %d, utility %v, scores (%v, %v); want %d, 2, %+v",
				c.id, d.lastTrained, d.statUtil, u, dn, c.lastTrained, c.want)
		}
		if got := arrivalAt(edge, c.id); got != c.arrived {
			t.Errorf("device %d arrived %q, want %q", c.id, got, c.arrived)
		}
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}
