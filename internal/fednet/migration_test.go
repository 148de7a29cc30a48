package fednet

// Live migration tests: the stateful edge-to-edge handover path under
// clean conditions (resume + dual-parented trace spans), under targeted
// chaos on the edge–edge link (every faulted handover must fall back to
// drop-and-reconnect, never lose a device), and disabled (the default
// path must not move a single migration counter).

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"middle/internal/checkpoint"
	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
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

func migrationCounts(reg *obs.Registry) (ok, fallback, rejected int64) {
	return reg.Counter("fednet_migrations_total", "outcome", "ok").Value(),
		reg.Counter("fednet_migrations_total", "outcome", "fallback").Value(),
		reg.Counter("fednet_migrations_total", "outcome", "rejected").Value()
}

// TestClusterLiveMigrationResume is the handover acceptance test: under
// high mobility with migration enabled, handovers complete ("ok"
// outcomes) and each completed transfer is visible in the trace as a
// dual-parented pair — a "migrate" span under the source edge's round
// and a "migrate_in" span under the destination edge's round whose
// src_span argument names its "migrate" twin. The migrated optimizer
// moments must arrive too, at any group size: some device_train span
// serves a Resume request.
func TestClusterLiveMigrationResume(t *testing.T) {
	for _, group := range []int{1, 3} {
		mob := mobility.NewMarkovRing(3, 9, 0.5, 7)
		cfg := migrationClusterConfig(t, 12, mob)
		reg := obs.NewRegistry()
		trace := obs.NewTrace(0)
		cfg.Obs, cfg.Trace = reg, trace
		cfg.Mux = group
		c, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, v := range c.GlobalModel() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("global model[%d] = %v after migration run", i, v)
			}
		}

		ok, fallback, rejected := migrationCounts(reg)
		if ok == 0 {
			t.Fatalf("no successful migrations under p=0.5 mobility (ok=%d fallback=%d rejected=%d)",
				ok, fallback, rejected)
		}

		events := trace.Events()
		if err := obs.ValidateTraceEvents(events); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		span := func(e obs.TraceEvent) string { p, _ := e.Args["span"].(string); return p }
		parent := func(e obs.TraceEvent) string { p, _ := e.Args["parent"].(string); return p }
		byID := map[string]obs.TraceEvent{}
		var migrates, migrateIns []obs.TraceEvent
		resumes := 0
		for _, e := range events {
			if e.Ph != "X" {
				continue
			}
			if id := span(e); id != "" {
				byID[id] = e
			}
			switch e.Name {
			case "migrate":
				migrates = append(migrates, e)
			case "migrate_in":
				migrateIns = append(migrateIns, e)
			case "device_train":
				if r, _ := e.Args["resume"].(bool); r {
					resumes++
				}
			}
		}
		if resumes == 0 {
			t.Fatalf("group of %d: %d handovers completed but no device trained a Resume request", group, ok)
		}
		if len(migrates) == 0 || len(migrateIns) == 0 {
			t.Fatalf("migrate spans = %d, migrate_in spans = %d; want both > 0",
				len(migrates), len(migrateIns))
		}
		okSpans := 0
		for _, e := range migrates {
			if p := byID[parent(e)]; p.Name != "edge_round" {
				t.Fatalf("migrate %q parented on %q, want the source edge_round", span(e), parent(e))
			}
			if out, _ := e.Args["outcome"].(string); out == "ok" {
				okSpans++
			}
		}
		if okSpans == 0 {
			t.Fatal("no migrate span carries outcome=ok despite the ok counter moving")
		}
		for _, e := range migrateIns {
			if p := byID[parent(e)]; p.Name != "edge_round" {
				t.Fatalf("migrate_in %q parented on %q, want the destination edge_round", span(e), parent(e))
			}
			src, _ := e.Args["src_span"].(string)
			if src == "" {
				t.Fatalf("migrate_in %q carries no src_span back-reference", span(e))
			}
			twin, okTwin := byID[src]
			if !okTwin || twin.Name != "migrate" {
				t.Fatalf("migrate_in %q src_span %q does not name a migrate span", span(e), src)
			}
			// The two halves of the pair live under different edges' rounds:
			// that is the dual-parent property.
			if twin.Pid == e.Pid {
				t.Fatalf("migrate pair %q/%q recorded under the same edge pid %d", src, span(e), e.Pid)
			}
		}
		t.Logf("group of %d: %d ok, %d fallback, %d rejected; %d migrate / %d migrate_in spans, %d resumed rounds",
			group, ok, fallback, rejected, len(migrates), len(migrateIns), resumes)
	}
}

// TestClusterMigrationChaos injects drop, corruption, partition and
// Byzantine rewrites specifically on the edge–edge migration link. The
// run must still complete: every faulted handover degrades to
// drop-and-reconnect ("fallback") or a clean rejection ("rejected" via
// the record's inner CRC), no device is lost, and the usual device–edge
// traffic is untouched.
func TestClusterMigrationChaos(t *testing.T) {
	mob := mobility.NewMarkovRing(3, 9, 0.5, 7)
	cfg := migrationClusterConfig(t, 9, mob)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.Timeout = 3 * time.Second
	cfg.RoundDeadline = 2 * time.Second
	// MigrateTimeout bounds how long a faulted handover attempt blocks
	// the mobility step; transfers are loopback, so keep it tight or the
	// drop/partition faults serialize into minutes of waiting.
	cfg.MigrateTimeout = 150 * time.Millisecond
	cfg.Quorum = 1
	cfg.Faults = &FaultConfig{
		Seed:     42,
		EdgeEdge: FaultRates{Drop: 0.3, Corrupt: 0.15, Partition: 0.1, Poison: 0.2},
		MaxDelay: 10 * time.Millisecond,
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("migration chaos run failed with a real error: %v", err)
	}
	for i, v := range c.GlobalModel() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global model[%d] = %v after migration chaos", i, v)
		}
	}

	injected := int64(0)
	for _, kind := range []string{"drop", "corrupt", "partition", "poison"} {
		injected += reg.Counter("fednet_injected_faults_total", "kind", kind).Value()
	}
	if injected == 0 {
		t.Fatal("no faults injected on the edge_edge link — rates or wiring broken")
	}
	ok, fallback, rejected := migrationCounts(reg)
	if ok+fallback+rejected == 0 {
		t.Fatal("no migrations attempted under p=0.5 mobility")
	}
	if fallback+rejected == 0 {
		t.Fatalf("faults injected (%d) but every handover completed (ok=%d) — chaos not reaching the migrate link", injected, ok)
	}
	// No device may be stranded by migration failures: fallback is a cold
	// join, and the Connect retry loop keeps the device attached.
	if s := c.Stranded(); len(s) != 0 {
		t.Fatalf("devices stranded after migration chaos: %v", s)
	}
	total := 0
	for _, r := range c.DeviceRounds() {
		total += r
	}
	if total == 0 {
		t.Fatal("no device trained — chaos on the migrate link leaked into training")
	}
	t.Logf("migration chaos: %d faults, %d ok / %d fallback / %d rejected, %d tolerated component failures",
		injected, ok, fallback, rejected, c.ToleratedFaults())
}

// TestClusterMigrationDisabledInert pins the default path: without
// LiveMigration not a single migration counter, handover observation or
// edge-edge byte may move. (Bit-identity of disabled runs is pinned in
// internal/hfl, where execution is deterministic; a socket cluster's
// arrival order is not.)
func TestClusterMigrationDisabledInert(t *testing.T) {
	mob := mobility.NewMarkovRing(3, 9, 0.5, 7)
	cfg := migrationClusterConfig(t, 9, mob)
	cfg.LiveMigration = false
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	ok, fallback, rejected := migrationCounts(reg)
	if ok+fallback+rejected != 0 {
		t.Fatalf("migration counters moved with LiveMigration off: ok=%d fallback=%d rejected=%d",
			ok, fallback, rejected)
	}
	if sent := reg.Counter("fednet_sent_msgs_total", "link", linkEdgeEdge).Value(); sent != 0 {
		t.Fatalf("edge_edge link carried %d messages with LiveMigration off", sent)
	}
}

// TestEdgeResumeUsedUpByFirstTraining pins when a handover's offer to
// resume is spent: at the device's first training at the destination,
// even one that declines it because the device last trained before the
// destination's latest sync (ResetLocal). Kept pending, the offer would
// make the next training import optimizer state from before the move.
func TestEdgeResumeUsedUpByFirstTraining(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 1, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second, LiveMigration: true,
	})
	// A sync at round 2 with nobody registered puts the edge in sync era 2.
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 2, Sync: true}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	// Device 5 last trained in round 1 at edge 1, before that sync.
	raw, err := checkpoint.EncodeHandoverBytes(checkpoint.Handover{
		Device: 5, SrcEdge: 1, DestEdge: 0, Generation: 1, Round: 2, LastSync: 2, LastTrained: 1,
		Steps: 4, DataSize: 10, StatUtil: 1, Model: []float64{0.5, 0.5, 0.5},
		MomentLens: []int{3}, Moments: []float64{0.1, 0.2, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetDeadline(time.Now().Add(5 * time.Second))
	mig := Migrate{SrcEdge: 1, DestEdge: 0, DeviceID: 5, Generation: 1, RecordBytes: len(raw)}
	if err := WriteMsg(src, MsgMigrate, mig, packBytes(raw)); err != nil {
		t.Fatal(err)
	}
	var ack MigrateAck
	if mt, _, err := ReadMsg(src, &ack); err != nil || mt != MsgMigrateAck || !ack.Accepted {
		t.Fatalf("migrate ack: type %d, %+v, %v", mt, ack, err)
	}

	dev, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	dev.SetDeadline(time.Now().Add(5 * time.Second))
	hello := RegisterMux{Devices: []RegisterDevice{{DeviceID: 5, DataSize: 10, PrevEdge: 1}}}
	if err := WriteMsg(dev, MsgRegisterMux, hello, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(dev, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
		t.Fatalf("register ack: type %d, %v", mt, err)
	}
	var reqs []TrainRequest
	for round := 3; round <= 4; round++ {
		if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: round}, nil); err != nil {
			t.Fatal(err)
		}
		var req TrainRequest
		if mt, _, err := ReadMsg(dev, &req); err != nil || mt != MsgTrainRequest {
			t.Fatalf("round %d: train request: type %d, %v", round, mt, err)
		}
		reqs = append(reqs, req)
		if err := WriteMsg(dev, MsgTrainReply, TrainReply{DeviceID: 5, Round: round, DataSize: 10}, []float64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		var done RoundDone
		if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone || done.Trained != 1 {
			t.Fatalf("round %d done: type %d, %+v, %v", round, mt, done, err)
		}
	}
	if !reqs[0].ResetLocal || reqs[0].Resume || !reqs[0].WantMoments {
		t.Fatalf("first request %+v: want a reset that declines the resume and keeps the moments", reqs[0])
	}
	if reqs[1].ResetLocal || reqs[1].Resume {
		t.Fatalf("second request %+v: the offer outlived the first training", reqs[1])
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestMigrateOutLeavesCandidateSet pins the order of a handover at the
// source: when MigrateOut returns — whatever the transfer's outcome — the
// device is no longer a candidate there, although its connection is still
// up and its sibling on it still registered. The leave notice or closing
// socket that follows may arrive after the next round has selected.
func TestMigrateOutLeavesCandidateSet(t *testing.T) {
	reg := obs.NewRegistry()
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 1, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second,
		LiveMigration: true, MaxRetries: -1, Obs: reg,
	})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	dev, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	dev.SetDeadline(time.Now().Add(5 * time.Second))
	register := func(id int) {
		t.Helper()
		if err := WriteMsg(dev, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: id, DataSize: 10, PrevEdge: -1}}}, nil); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := ReadMsg(dev, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
			t.Fatalf("register ack: type %d, %v", mt, err)
		}
	}
	// Device 5 trains a round, so the edge has state to hand over.
	register(5)
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(dev, &TrainRequest{}); err != nil || mt != MsgTrainRequest {
		t.Fatalf("train request: type %d, %v", mt, err)
	}
	if err := WriteMsg(dev, MsgTrainReply, TrainReply{DeviceID: 5, Round: 1, DataSize: 10}, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(cc, &RoundDone{}); err != nil || mt != MsgRoundDone {
		t.Fatalf("round done: type %d, %v", mt, err)
	}
	register(4)

	// The destination is down, and device 4 never trained here.
	if out := edge.MigrateOut(5, 1, deadAddr, 1); out != "fallback" {
		t.Fatalf("MigrateOut(5) = %q, want fallback", out)
	}
	if ids := registered(edge); ids[5] || !ids[4] {
		t.Fatalf("edge lists %v after handing device 5 away, want 4 alone", ids)
	}
	if out := edge.MigrateOut(4, 1, deadAddr, 1); out != "" {
		t.Fatalf("MigrateOut(4) = %q, want nothing to hand over", out)
	}
	if ids := registered(edge); len(ids) != 0 || reg.Gauge("fednet_virtual_devices").Value() != 0 {
		t.Fatalf("edge lists %v after handing both devices away", ids)
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestPackBytesRoundTrip covers the byte<->float64 shim that carries the
// handover record through the vector slot of the wire protocol.
func TestPackBytesRoundTrip(t *testing.T) {
	for n := 0; n <= 33; n++ {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i*37 + n)
		}
		out, ok := unpackBytes(packBytes(in), n)
		if !ok {
			t.Fatalf("unpackBytes rejected its own packing at n=%d", n)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d bytes back", n, len(out))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("n=%d: byte %d = %d, want %d", n, i, out[i], in[i])
			}
		}
	}
	vec := packBytes(make([]byte, 16))
	for _, bad := range []int{-1, 8, 17, 1 << 30} {
		if _, ok := unpackBytes(vec, bad); ok {
			t.Fatalf("unpackBytes accepted inconsistent length %d for a 16-byte payload", bad)
		}
	}
}

// TestAcceptMigrateRefusesUnbackedClaim sends an edge a MsgMigrate whose
// handover record announces 2^30 model values and ends there, under a
// valid checksum — any peer can compute one. The record decoder must
// size the vector from the bytes that arrived: the edge answers
// corrupt_record and allocates next to nothing.
func TestAcceptMigrateRefusesUnbackedClaim(t *testing.T) {
	e, err := NewEdge(EdgeConfig{EdgeID: 2, Addr: "127.0.0.1:0", K: 1, Strategy: core.NewMiddle(), LiveMigration: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.ln.Close()
	rec := append([]byte("MIDL"), 3)
	for _, v := range []uint64{5, 0, 2, 1, 0, 0, 0, 0, 30, math.Float64bits(1.5), 1 << 30} {
		rec = binary.LittleEndian.AppendUint64(rec, v) // nine ints, the utility, the model count
	}
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	mig := Migrate{SrcEdge: 0, DestEdge: 2, DeviceID: 5, Generation: 1, RecordBytes: len(rec)}

	client, server := net.Pipe()
	defer client.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go e.acceptMigrate(server, mig, packBytes(rec))
	var ack MigrateAck
	if mt, _, err := ReadMsg(client, &ack); err != nil || mt != MsgMigrateAck {
		t.Fatalf("reading the ack: type %d, %v", mt, err)
	}
	runtime.ReadMemStats(&after)
	if ack.Accepted || ack.Reason != "corrupt_record" {
		t.Fatalf("ack %+v, want a corrupt_record refusal", ack)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte record claiming 2^30 values made the edge allocate %d bytes", len(rec), got)
	}
}
