package fednet

// Chaos tests: seeded fault injection against the full cluster, plus
// focused tests pinning the degradation semantics (straggler exclusion,
// quorum fallback, checkpoint resume) and the injector's determinism.

import (
	"bytes"
	"errors"
	"math"
	"net"
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
// admits it with a three-value global model. It returns the edge, the
// cloud's end of the edge–cloud connection and the edge's Run result.
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
	if err := WriteMsg(cc, MsgGlobalModel, struct{}{}, []float64{1, 2, 3}); err != nil {
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
			MaxRetries:    -1, // single attempt: the deadline, not retries, must exclude
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
	if !mx.Connected(5) {
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
	if resumed.StartRound() != st.Round {
		t.Fatalf("resumed StartRound = %d, want %d", resumed.StartRound(), st.Round)
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
