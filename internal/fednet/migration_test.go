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
