package fednet

// Chaos tests: seeded fault injection against the full cluster, plus
// focused tests pinning the degradation semantics (straggler exclusion,
// quorum fallback, checkpoint resume) and the injector's determinism.

import (
	"bytes"
	"errors"
	"math"
	"net"
	"slices"
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

// TestFaultPlanDeterministic pins the injector's core contract: fault
// decisions are a pure function of (seed, rates, link, id, msg), so a
// run's fault pattern is reproducible from its seed alone.
func TestFaultPlanDeterministic(t *testing.T) {
	rates := FaultRates{Drop: 0.2, Delay: 0.1, Corrupt: 0.05, Reset: 0.02}
	a := PlanFaults(7, rates, linkDeviceEdge, 3, 500)
	b := PlanFaults(7, rates, linkDeviceEdge, 3, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at msg %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := PlanFaults(8, rates, linkDeviceEdge, 3, 500)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical 500-message plans")
	}
	// Rough rate sanity: ~37% of messages should be faulted at these rates.
	faults := 0
	for _, k := range a {
		if k != FaultNone {
			faults++
		}
	}
	if faults < 100 || faults > 300 {
		t.Fatalf("implausible fault count %d/500 for total rate 0.37", faults)
	}
}

// TestFaultInjectorDropsMatchPlan drives real frames through a wrapped
// connection and checks the receiver sees exactly the messages PlanFaults
// says survive (drop-only rates keep surviving frames intact).
func TestFaultInjectorDropsMatchPlan(t *testing.T) {
	const seed, id, n = 42, 5, 60
	rates := FaultRates{Drop: 0.3}
	inj := NewFaultInjector(FaultConfig{Seed: seed, DeviceEdge: rates})
	if inj == nil {
		t.Fatal("injector unexpectedly nil")
	}
	plan := PlanFaults(seed, rates, linkDeviceEdge, id, n)
	want := 0
	for _, k := range plan {
		if k == FaultNone {
			want++
		}
	}
	if want == 0 || want == n {
		t.Fatalf("degenerate plan: %d/%d survive", want, n)
	}

	client, server := net.Pipe()
	got := make(chan int, 1)
	go func() {
		count := 0
		for {
			if _, _, err := ReadMsg(server, &TrainReply{}); err != nil {
				break
			}
			count++
		}
		got <- count
	}()
	conn := inj.WrapDeviceLink(client, id)
	for i := 0; i < n; i++ {
		if err := WriteMsg(conn, MsgTrainReply, TrainReply{DeviceID: id, Round: i}, []float64{1, 2, 3}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	client.Close()
	if count := <-got; count != want {
		t.Fatalf("receiver saw %d frames, plan says %d survive", count, want)
	}
}

// TestCorruptFrameRejected pins the CRC guard: a bit flipped in transit
// must surface as ErrCorruptFrame, never as a decoded message.
func TestCorruptFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, MsgTrainReply, TrainReply{DeviceID: 1, Round: 2}, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[5] ^= 0x01 // same flip the injector's corrupt fault applies
	var reply TrainReply
	_, _, err := ReadMsg(bytes.NewReader(frame), &reply)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted frame produced %v, want ErrCorruptFrame", err)
	}
}

// TestClusterChaosSoak runs a full deployment under ≥10% per-message
// drop+delay (plus corruption and resets) on the device–edge links and
// delays on the edge–cloud links, and checks the run completes, the model
// stays finite and the degradation machinery actually fired — among it
// the re-registration of devices whose connection a fault took down.
func TestClusterChaosSoak(t *testing.T) {
	mob := mobility.NewMarkovRing(3, 9, 0.4, 7)
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
	reg := obs.NewRegistry()
	c, err := StartCluster(ClusterConfig{
		Rounds: 10, K: 2, LocalSteps: 2, BatchSize: 8, CloudInterval: 3,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 1,
		Timeout:       3 * time.Second,
		RoundDeadline: 2 * time.Second,
		Quorum:        1,
		Faults: &FaultConfig{
			Seed:       99,
			DeviceEdge: FaultRates{Drop: 0.08, Delay: 0.06, Corrupt: 0.02, Reset: 0.02},
			EdgeCloud:  FaultRates{Delay: 0.05},
			MaxDelay:   20 * time.Millisecond,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("chaos run failed with a real error: %v", err)
	}
	model := c.GlobalModel()
	for i, v := range model {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global model[%d] = %v after chaos run", i, v)
		}
	}
	injected := int64(0)
	for _, kind := range []string{"drop", "delay", "corrupt", "reset"} {
		injected += reg.Counter("fednet_injected_faults_total", "kind", kind).Value()
	}
	if injected == 0 {
		t.Fatal("no faults were injected — rates or wiring broken")
	}
	// A reset or a corrupt frame takes a device's connection down, and the
	// edge deregisters the device with it: the device must re-register by
	// itself, and be counted doing so.
	resets := reg.Counter("fednet_injected_faults_total", "kind", "reset").Value()
	reconnects := reg.Counter("fednet_device_reconnects_total").Value()
	if resets == 0 || reconnects == 0 {
		t.Fatalf("%d resets injected, %d devices re-registered after a lost connection; want both > 0", resets, reconnects)
	}
	// The stack must have noticed: at least one of the recovery paths
	// (retries, straggler exclusion, quorum fallback, corrupt-frame
	// rejection) fires under this fault mix and seed.
	recovered := reg.Counter("fednet_retries_total").Value() +
		reg.Counter("fednet_excluded_stragglers_total").Value() +
		reg.Counter("fednet_quorum_misses_total").Value() +
		reg.Counter("fednet_corrupt_frames_total", "link", linkDeviceEdge).Value()
	if recovered == 0 {
		t.Fatalf("faults injected (%d) but no recovery counter moved", injected)
	}
	t.Logf("chaos soak: %d faults injected (%d resets), %d recoveries, %d reconnects, %d tolerated component failures",
		injected, resets, recovered, reconnects, c.ToleratedFaults())
}

// TestClusterQuorumFallback pins the quorum semantics end to end: with a
// single device per run and Quorum clamped to 2 via K, every round falls
// below quorum, so the edge carries its model and the cloud's global
// model never changes.
func TestClusterQuorumFallback(t *testing.T) {
	mob := mobility.NewStatic(1, 1)
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 60, 3, 5)
	part := data.PartitionMajorClass(train, 1, 30, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(train.SampleSize(), 8, rng),
			nn.NewReLU(),
			nn.NewLinear(8, train.Classes, rng),
		)
	}
	reg := obs.NewRegistry()
	c, err := StartCluster(ClusterConfig{
		Rounds: 4, K: 2, LocalSteps: 1, BatchSize: 8, CloudInterval: 2,
		Strategy: core.NewGeneral(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.05},
		Mobility:  mob, Seed: 3,
		Quorum: 2, // one connected device can never meet it
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), c.GlobalModel()...)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	after := c.GlobalModel()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("global model changed at %d despite permanent quorum miss", i)
		}
	}
	// Every round with the device attached misses quorum. Round 1 may
	// start before the device finishes registering (an empty candidate
	// set is not a quorum miss), so at least 3 of the 4 rounds count.
	if got := reg.Counter("fednet_quorum_misses_total").Value(); got < 3 || got > 4 {
		t.Fatalf("fednet_quorum_misses_total = %d, want 3 or 4", got)
	}
}

// edgeUnderFakeCloud starts a real edge against a stand-in cloud that
// welcomes it at epoch 1 with a three-value global model. It returns the
// edge, the cloud's end of the edge–cloud connection and the edge's Run
// result.
func edgeUnderFakeCloud(t *testing.T, cfg EdgeConfig) (*Edge, net.Conn, <-chan error) {
	t.Helper()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloudLn.Close() })
	cfg.CloudAddr, cfg.Addr = cloudLn.Addr().String(), "127.0.0.1:0"
	edge, err := NewEdge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edgeErr := make(chan error, 1)
	go func() { edgeErr <- edge.Run() }()
	cc, err := cloudLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	cc.SetDeadline(time.Now().Add(10 * time.Second))
	var re RegisterEdge
	if mt, _, err := ReadMsg(cc, &re); err != nil || mt != MsgRegisterEdge {
		t.Fatalf("edge registration: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgEdgeWelcome, EdgeWelcome{Epoch: 1, LeaseMillis: 500}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	return edge, cc, edgeErr
}

// registered lists the device ids the edge currently has registered.
func registered(e *Edge) map[int]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := map[int]bool{}
	for id := range e.devices {
		ids[id] = true
	}
	return ids
}

// TestEdgeStragglerExclusion registers silent fake devices against a real
// edge through one raw connection and checks the round deadline excludes
// the selected one: the round reports zero trained devices and the
// straggler counter fires. What happens to the straggler is read from how
// many devices ride its connection: alone, its connection is closed and
// it is dropped rather than leaked in the edge's map; with a sibling the
// connection is presumed healthy and both stay registered.
func TestEdgeStragglerExclusion(t *testing.T) {
	for _, group := range []int{1, 2} {
		reg := obs.NewRegistry()
		edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
			EdgeID: 0, K: 1, Strategy: core.NewGeneral(), Seed: 1,
			Timeout:       3 * time.Second,
			RoundDeadline: 250 * time.Millisecond,
			Obs:           reg,
		})

		// Silent client: registers, consumes the train request, never replies.
		dev, err := net.Dial("tcp", edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		dev.SetDeadline(time.Now().Add(5 * time.Second))
		var hello RegisterMux
		for id := 0; id < group; id++ {
			hello.Devices = append(hello.Devices, RegisterDevice{DeviceID: id, DataSize: 10, PrevEdge: -1})
		}
		if err := WriteMsg(dev, MsgRegisterMux, hello, nil); err != nil {
			t.Fatal(err)
		}
		// The ack is header only: the edge model reaches a device with its
		// train request, never with the registration.
		var ack RegisterAck
		if mt, model, err := ReadMsg(dev, &ack); err != nil || mt != MsgRegisterAck || len(model) != 0 {
			t.Fatalf("register ack: type %d, %d-element payload, %v", mt, len(model), err)
		}

		if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1}, nil); err != nil {
			t.Fatal(err)
		}
		var done RoundDone
		if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone {
			t.Fatalf("round done: type %d, %v", mt, err)
		}
		if done.Trained != 0 {
			t.Fatalf("silent device counted as trained: %+v", done)
		}
		if got := reg.Counter("fednet_excluded_stragglers_total").Value(); got != 1 {
			t.Fatalf("fednet_excluded_stragglers_total = %d, want 1", got)
		}
		if got := reg.Counter("fednet_quorum_misses_total").Value(); got != 1 {
			t.Fatalf("fednet_quorum_misses_total = %d, want 1 (0 responders < quorum 1)", got)
		}
		if left, want := len(registered(edge)), map[int]int{1: 0, 2: 2}[group]; left != want {
			t.Fatalf("group of %d: %d devices registered after the exclusion, want %d", group, left, want)
		}
		if got := reg.Gauge("fednet_virtual_devices").Value(); int(got) != len(registered(edge)) {
			t.Fatalf("fednet_virtual_devices = %v with %d devices registered", got, len(registered(edge)))
		}
		if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-edgeErr; err != nil {
			t.Fatalf("edge exited with %v", err)
		}
	}
}

// rawClient registers devices ids at edge over one raw connection played
// by the test and returns it, its registration acked.
func rawClient(t *testing.T, edge *Edge, ids ...int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var hello RegisterMux
	for _, id := range ids {
		hello.Devices = append(hello.Devices, RegisterDevice{DeviceID: id, DataSize: 10, PrevEdge: -1})
	}
	if err := WriteMsg(conn, MsgRegisterMux, hello, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := ReadMsg(conn, &RegisterAck{}); err != nil || mt != MsgRegisterAck {
		t.Fatalf("register ack: type %d, %v", mt, err)
	}
	return conn
}

// readRequests reads the train requests of round that conn's devices ids
// are sent, in whatever order they arrive, past the scores of the round
// before.
func readRequests(t *testing.T, conn net.Conn, round int, ids ...int) {
	t.Helper()
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(want) > 0 {
		var h frameHeaders
		mt, _, _, err := readFrame(conn, &h, nil)
		if err == nil && mt == MsgScores {
			continue
		}
		if req := h.trainRequest; err != nil || mt != MsgTrainRequest || req.Round != round || !want[req.DeviceID] {
			t.Fatalf("round %d: type %d, request %+v, %v; want a request to one of %v", round, mt, req, err, ids)
		}
		delete(want, h.trainRequest.DeviceID)
	}
}

// reply answers device id's train request of round over conn with vec.
func reply(t *testing.T, conn net.Conn, id, round int, vec []float64) {
	t.Helper()
	if err := WriteMsg(conn, MsgTrainReply, TrainReply{DeviceID: id, Round: round, DataSize: 10}, vec); err != nil {
		t.Fatal(err)
	}
}

// playRound starts round at the fake cloud, lets answer play the devices,
// and returns the edge's report and how long the round took.
func playRound(t *testing.T, cc net.Conn, round int, answer func()) (RoundDone, time.Duration) {
	t.Helper()
	start := time.Now()
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: round}, nil); err != nil {
		t.Fatal(err)
	}
	answer()
	var done RoundDone
	if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone || done.Round != round {
		t.Fatalf("round %d done: type %d, %+v, %v", round, mt, done, err)
	}
	return done, time.Since(start)
}

// roundClosed fails the test unless the edge holds nothing of a round
// that has reported: no train RPC open on mx, no result in the inbox, and
// the edge model's previous buffer free for the next aggregate.
func roundClosed(t *testing.T, edge *Edge, mx *edgeMux, round int) {
	t.Helper()
	mx.mu.Lock()
	open := len(mx.open)
	mx.mu.Unlock()
	edge.mu.Lock()
	spare := edge.spareModel != nil
	edge.mu.Unlock()
	if open != 0 || len(edge.inbox) != 0 || !spare {
		t.Fatalf("after round %d reported: %d RPCs open, %d results in the inbox, spare model buffer %v; want 0, 0, true",
			round, open, len(edge.inbox), spare)
	}
}

// muxOf returns the connection device id is registered through.
func muxOf(t *testing.T, edge *Edge, id int) *edgeMux {
	t.Helper()
	edge.mu.Lock()
	defer edge.mu.Unlock()
	d, ok := edge.devices[id]
	if !ok {
		t.Fatalf("device %d is not registered", id)
	}
	return d.mux
}

// TestStragglerOnSharedConnectionTrainsNextRound: a device that shares
// its connection and stays silent through one round's deadline is out of
// that round only. Its RPC ends with the round, so the next round sends
// it a request at once, trains both devices without a retry and reports
// long before its deadline; after each report nothing of the round is
// left open.
func TestStragglerOnSharedConnectionTrainsNextRound(t *testing.T) {
	const deadline = 250 * time.Millisecond
	reg := obs.NewRegistry()
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1,
		Timeout: 3 * time.Second, RoundDeadline: deadline, Obs: reg,
	})
	dev := rawClient(t, edge, 0, 1)
	mx := muxOf(t, edge, 0)

	done, took := playRound(t, cc, 1, func() {
		readRequests(t, dev, 1, 0, 1)
		reply(t, dev, 1, 1, []float64{5, 5, 5}) // device 0 stays silent
	})
	if done.Trained != 1 || took < deadline {
		t.Fatalf("round 1: trained %d in %v; want 1, at the %v deadline", done.Trained, took, deadline)
	}
	roundClosed(t, edge, mx, 1)

	done, took = playRound(t, cc, 2, func() {
		readRequests(t, dev, 2, 0, 1)
		reply(t, dev, 0, 2, []float64{2, 2, 2})
		reply(t, dev, 1, 2, []float64{4, 4, 4})
	})
	if done.Trained != 2 || took >= deadline/2 {
		t.Fatalf("round 2: trained %d in %v; want 2, well before the %v deadline", done.Trained, took, deadline)
	}
	roundClosed(t, edge, mx, 2)
	if got := reg.Counter("fednet_retries_total").Value(); got != 0 {
		t.Fatalf("fednet_retries_total = %d, want 0", got)
	}
	if got := reg.Counter("fednet_excluded_stragglers_total").Value(); got != 1 {
		t.Fatalf("fednet_excluded_stragglers_total = %d, want 1", got)
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestLateReplyNeverReachesTheNextRound: a device answers round 1 after
// its deadline, once between the rounds and once while its round-2 RPC is
// open. Each late vector goes back to the edge's free list, and round 2
// aggregates its own two replies only.
func TestLateReplyNeverReachesTheNextRound(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1,
		Timeout: 3 * time.Second, RoundDeadline: 250 * time.Millisecond,
	})
	dev := rawClient(t, edge, 0, 1)
	mx := muxOf(t, edge, 0)
	late := []float64{1e6, 1e6, 1e6}

	if done, _ := playRound(t, cc, 1, func() {
		readRequests(t, dev, 1, 0, 1)
		reply(t, dev, 1, 1, []float64{5, 5, 5})
	}); done.Trained != 1 {
		t.Fatalf("round 1 trained %d, want 1", done.Trained)
	}
	reply(t, dev, 0, 1, late)
	waitFor(t, 5*time.Second, "the late reply on the free list", func() bool {
		edge.replies.mu.Lock()
		defer edge.replies.mu.Unlock()
		return slices.ContainsFunc(edge.replies.free, func(v []float64) bool { return sameBits(v, late) })
	})

	done, _ := playRound(t, cc, 2, func() {
		readRequests(t, dev, 2, 0, 1)
		reply(t, dev, 0, 1, late)
		reply(t, dev, 0, 2, []float64{2, 2, 2})
		reply(t, dev, 1, 2, []float64{4, 4, 4})
	})
	roundClosed(t, edge, mx, 2)
	edge.mu.Lock()
	model := slices.Clone(edge.edgeModel)
	edge.mu.Unlock()
	if done.Trained != 2 || !sameBits(model, []float64{3, 3, 3}) {
		t.Fatalf("round 2: trained %d, edge model %v; want 2 and the mean of its own replies, [3 3 3]", done.Trained, model)
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestStuckRequestWriteEndsWithItsRound: a client that stops reading
// leaves the edge's request writes stuck on a full socket. The round
// still reports at its deadline, not the frame Timeout later: the write is
// cut there and fails the connection, which drops both its devices.
func TestStuckRequestWriteEndsWithItsRound(t *testing.T) {
	const deadline = 250 * time.Millisecond
	reg := obs.NewRegistry()
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 2, Strategy: core.NewGeneral(), Seed: 1,
		Timeout: 5 * time.Second, RoundDeadline: deadline, Obs: reg,
	})
	// A sync round without devices installs a 4 MB global model, so two
	// requests overfill the edge's send buffer (4 MB at most) once the
	// client's receive buffer is a few KB.
	big := make([]float64, 1<<19)
	if err := WriteMsg(cc, MsgRoundStart, RoundStart{Round: 1, Sync: true}, nil); err != nil {
		t.Fatal(err)
	}
	var done RoundDone
	if mt, _, err := ReadMsg(cc, &done); err != nil || mt != MsgRoundDone {
		t.Fatalf("sync round done: type %d, %v", mt, err)
	}
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, big); err != nil {
		t.Fatal(err)
	}
	dev := rawClient(t, edge, 0, 1)
	if err := dev.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}

	done, took := playRound(t, cc, 2, func() {}) // the client reads nothing
	if done.Trained != 0 || took >= 4*deadline {
		t.Fatalf("round 2: trained %d in %v; want 0, at the %v deadline", done.Trained, took, deadline)
	}
	if got := reg.Counter("fednet_timeouts_total").Value(); got == 0 {
		t.Fatal("fednet_timeouts_total = 0, want the cut write counted")
	}
	waitFor(t, 5*time.Second, "the stuck connection's devices dropped", func() bool { return len(registered(edge)) == 0 })
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestDeviceMoveBackAfterFailedMove pins the detach on a move: a device
// that left its edge (a leave notice — a sibling keeps the connection)
// for one it could not reach is detached, so moving it back registers it
// again instead of reporting success and leaving it silently stranded.
// It moves back warm — the edge it headed for is gone — which a device
// can do over a connection it shares.
func TestDeviceMoveBackAfterFailedMove(t *testing.T) {
	edge, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{
		EdgeID: 0, K: 1, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second,
	})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	mx := testClient(t, 4, 5)
	defer mx.Disconnect()
	for _, id := range []int{4, 5} {
		if err := mx.Connect(id, 0, edge.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := mx.Connect(5, 1, deadAddr); err == nil {
		t.Fatal("moving to a closed listener succeeded")
	}
	waitFor(t, 5*time.Second, "the leave to reach the edge", func() bool { return !registered(edge)[5] })
	if err := mx.ConnectRehome(5, 0, edge.Addr()); err != nil {
		t.Fatal(err)
	}
	if ids := registered(edge); !ids[4] || !ids[5] {
		t.Fatalf("edge lists %v after device 5 moved back, want 4 and 5", ids)
	}
	if !attached(mx, 5) {
		t.Fatal("device 5 not attached after moving back")
	}
	if err := WriteMsg(cc, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge exited with %v", err)
	}
}

// TestClusterCheckpointResume runs a checkpointing cluster to completion,
// then builds a fresh Cloud over the same directory and checks it resumes
// at the checkpointed round with a byte-identical global model.
func TestClusterCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	mob := mobility.NewStatic(2, 4)
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 120, 3, 5)
	part := data.PartitionMajorClass(train, 4, 30, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(train.SampleSize(), 8, rng),
			nn.NewReLU(),
			nn.NewLinear(8, train.Classes, rng),
		)
	}
	c, err := StartCluster(ClusterConfig{
		Rounds: 6, K: 2, LocalSteps: 1, BatchSize: 8, CloudInterval: 2,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.05},
		Mobility:  mob, Seed: 4,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	st, ok, err := checkpoint.LoadLatest(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after run: ok=%v err=%v", ok, err)
	}
	if st.Round != 6 {
		t.Fatalf("latest checkpoint at round %d, want 6", st.Round)
	}

	// "Restart" the cloud over the same directory.
	resumed, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: 2, Rounds: 12, CloudInterval: 2,
		InitModel:     make([]float64, len(st.Model)),
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.ln.Close()
	if resumed.startRound != st.Round {
		t.Fatalf("resumed at round %d, want %d", resumed.startRound, st.Round)
	}
	got := resumed.GlobalModel()
	if len(got) != len(st.Model) {
		t.Fatalf("resumed model length %d, want %d", len(got), len(st.Model))
	}
	for i := range got {
		if got[i] != st.Model[i] {
			t.Fatalf("resumed model differs from checkpoint at %d: %v vs %v", i, got[i], st.Model[i])
		}
	}
	final := c.GlobalModel()
	for i := range got {
		if got[i] != final[i] {
			t.Fatalf("resumed model differs from the run's final model at %d", i)
		}
	}
}
