package fednet

import (
	"bytes"
	"io"
	"math"
	"net"
	"slices"
	"strings"
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

// --- protocol codec -------------------------------------------------------

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	vec := []float64{1.5, -2, math.Pi}
	in := TrainRequest{Round: 7, Moved: true, ResetLocal: true}
	if err := WriteMsg(&buf, MsgTrainRequest, in, vec); err != nil {
		t.Fatal(err)
	}
	var out TrainRequest
	typ, gotVec, err := ReadMsg(&buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgTrainRequest || out.Round != in.Round || out.Moved != in.Moved || out.ResetLocal != in.ResetLocal {
		t.Fatalf("got type %d header %+v", typ, out)
	}
	for i := range vec {
		if gotVec[i] != vec[i] {
			t.Fatalf("vector %v", gotVec)
		}
	}
}

func TestProtocolEmptyVector(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, MsgShutdown, struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	typ, vec, err := ReadMsg(&buf, nil)
	if err != nil || typ != MsgShutdown || vec != nil {
		t.Fatalf("type %d vec %v err %v", typ, vec, err)
	}
}

func TestProtocolRejectsOversizedFrames(t *testing.T) {
	// Hand-craft a frame claiming a gigantic header.
	raw := []byte{byte(MsgRoundStart), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadMsg(bytes.NewReader(raw), nil); err == nil {
		t.Fatal("oversized header accepted")
	}
}

func TestProtocolTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, MsgTrainReply, TrainReply{DeviceID: 1}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 1, 3, len(raw) / 2, len(raw) - 1} {
		if _, _, err := ReadMsg(bytes.NewReader(raw[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// EOF at a clean frame boundary is io.EOF specifically.
	if _, _, err := ReadMsg(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("clean EOF error %v", err)
	}
}

func TestProtocolSequentialMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMsg(&buf, MsgRoundStart, RoundStart{Round: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		var rs RoundStart
		typ, _, err := ReadMsg(&buf, &rs)
		if err != nil || typ != MsgRoundStart || rs.Round != i {
			t.Fatalf("message %d: type %d round %d err %v", i, typ, rs.Round, err)
		}
	}
}

// --- on-device start model ----------------------------------------------------

// thirdStrategy is a strategy no registry knows: a moved device starts
// from one third edge model, two thirds carried model.
type thirdStrategy struct{ *core.General }

func (thirdStrategy) Name() string { return "Third" }
func (thirdStrategy) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	out := append([]float64(nil), v.EdgeModel(edge)...)
	if moved {
		for i, l := range v.LocalModel(device) {
			out[i] = out[i]/3 + 2*l/3
		}
	}
	return out
}

// TestDeviceStartsFromStrategyInitLocal pins the device half of every
// strategy on the deployment path: a moved device — alone on its client
// or one of several — starts its round from exactly what
// Strategy.InitLocal returns for (downloaded edge model, carried local
// model). A zero learning rate makes the trained vector the start vector,
// bit for bit.
func TestDeviceStartsFromStrategyInitLocal(t *testing.T) {
	strategies := []hfl.Strategy{core.NewFixedAlpha(0.25), thirdStrategy{core.NewGeneral()}}
	for _, name := range core.Names() {
		s, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		strategies = append(strategies, s)
	}
	prof := data.FastImageProfile(2)
	train := data.GenerateImagesSplit(prof, 20, 5, 5)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), train.Classes, rng))
	}
	first := factory(tensor.NewRNG(1)).ParamVector()
	second := factory(tensor.NewRNG(2)).ParamVector()
	const id = 3
	for _, strat := range strategies {
		for _, group := range [][]MuxDevice{
			{{DeviceID: id, Indices: []int{0, 1, 2, 3}}},
			{{DeviceID: 1, Indices: []int{4, 5}}, {DeviceID: id, Indices: []int{0, 1, 2, 3}}},
		} {
			mx, err := NewDeviceMux(DeviceMuxConfig{
				Devices: group, Dataset: train, pool: solo(factory, hfl.OptimizerSpec{Kind: hfl.OptSGD}.New()), Strategy: strat,
				population: id + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Nothing carried yet: even a "moved" device starts from the
			// edge model, which the round then leaves as its carried model.
			got, _, err := mx.train(TrainRequest{Round: 1, DeviceID: id, Moved: true}, first, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, first) {
				t.Errorf("%s/group of %d: first round did not start from the edge model", strat.Name(), len(group))
			}
			got, _, err = mx.train(TrainRequest{Round: 2, DeviceID: id, Moved: true}, second, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := strat.InitLocal(deviceView{edge: second, local: first}, id, 1, true)
			if !sameBits(got, want) {
				t.Errorf("%s/group of %d: moved device did not start from Strategy.InitLocal", strat.Name(), len(group))
			}
		}
	}
}

// TestDeviceTrainOnlyReadsPayloadAndCarriedModel pins the deployment's
// half of the Strategy.InitLocal contract: strategies hand back the
// downloaded edge model (the pooled frame payload) or the carried local
// model itself, and DeviceMux.train must only read them — the payload is
// bit for bit what arrived when serveConn releases it, the carried model
// is replaced, never written — while the trained vector is storage of its
// own.
func TestDeviceTrainOnlyReadsPayloadAndCarriedModel(t *testing.T) {
	prof := data.FastImageProfile(2)
	train := data.GenerateImagesSplit(prof, 20, 5, 5)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), train.Classes, rng))
	}
	const id = 3
	// OORT starts from the payload itself; Greedy, once moved, from the
	// carried model itself.
	for _, strat := range []hfl.Strategy{core.NewOort(), core.NewGreedy()} {
		mx, err := NewDeviceMux(DeviceMuxConfig{
			Devices: []MuxDevice{{DeviceID: id, Indices: []int{0, 1, 2, 3}}}, Dataset: train,
			pool: solo(factory, hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1}.New()), Strategy: strat, LocalSteps: 2, BatchSize: 4,
			population: id + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var carried, carriedWas []float64
		for round := 1; round <= 2; round++ {
			payload := factory(tensor.NewRNG(int64(round))).ParamVector()
			arrived := append([]float64(nil), payload...)
			got, _, err := mx.train(TrainRequest{Round: round, DeviceID: id, Moved: true}, payload, round)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(payload, arrived) {
				t.Fatalf("%s round %d: train wrote to the frame payload", strat.Name(), round)
			}
			if &got[0] == &payload[0] || sameBits(got, arrived) {
				t.Fatalf("%s round %d: the trained vector is the payload", strat.Name(), round)
			}
			if carried != nil && (!sameBits(carried, carriedWas) || &got[0] == &carried[0]) {
				t.Fatalf("%s round %d: train wrote to the model the device carried in", strat.Name(), round)
			}
			carried, carriedWas = got, append([]float64(nil), got...)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --- end-to-end cluster ------------------------------------------------------

func clusterFixture(t *testing.T, strat hfl.Strategy, rounds int, mob mobility.Model) *Cluster {
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
	c, err := StartCluster(ClusterConfig{
		Rounds: rounds, K: 2, LocalSteps: 2, BatchSize: 8, CloudInterval: 3,
		Strategy: strat, Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterEndToEndMiddle(t *testing.T) {
	mob := mobility.NewMarkovRing(3, 9, 0.4, 7)
	c := clusterFixture(t, core.NewMiddle(), 9, mob)
	before := c.GlobalModel()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	after := c.GlobalModel()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("global model never changed")
	}
	rounds := c.DeviceRounds()
	total := 0
	for _, r := range rounds {
		total += r
	}
	// 9 rounds × 3 edges × up to K=2 devices each.
	if total == 0 || total > 9*3*2 {
		t.Fatalf("device training rounds %v (total %d)", rounds, total)
	}
}

func TestClusterTrainingImprovesAccuracy(t *testing.T) {
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 600, 9, 9)
	test := data.GenerateImagesSplit(prof, 200, 9, 91)
	mob := mobility.NewMarkovRing(2, 8, 0.3, 3)
	part := data.PartitionMajorClass(train, 8, 60, 0.85, 4)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(train.SampleSize(), 24, rng),
			nn.NewReLU(),
			nn.NewLinear(24, train.Classes, rng),
		)
	}
	c, err := StartCluster(ClusterConfig{
		Rounds: 15, K: 3, LocalSteps: 4, BatchSize: 12, CloudInterval: 5,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	evalNet := factory(tensor.NewRNG(1))
	evalNet.SetParamVector(c.GlobalModel())
	x, y := test.Batch(test.All())
	accBefore := nn.Accuracy(evalNet.Forward(x, false), y)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	evalNet.SetParamVector(c.GlobalModel())
	accAfter := nn.Accuracy(evalNet.Forward(x, false), y)
	if accAfter < accBefore+0.2 {
		t.Fatalf("networked training barely improved: %v -> %v", accBefore, accAfter)
	}
	if c.MoveErrors() != 0 {
		t.Fatalf("%d device migrations failed", c.MoveErrors())
	}
}

func TestClusterAllStrategiesRun(t *testing.T) {
	for _, strat := range []hfl.Strategy{core.NewOort(), core.NewFedMes(), core.NewGreedy()} {
		mob := mobility.NewMarkovRing(2, 6, 0.5, 11)
		c := clusterFixture(t, strat, 6, mob)
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
}

func TestClusterStaticMobility(t *testing.T) {
	mob := mobility.NewStatic(2, 6)
	c := clusterFixture(t, core.NewGeneral(), 6, mob)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.MoveErrors() != 0 {
		t.Fatal("static mobility produced move errors")
	}
}

// TestClusterStaticRunsBitIdentical pins that a deployment without
// movement or faults computes one global model per seed: selection sees
// the candidates in id order (strategies shuffle their input, so map order
// would change it) and Eq. 6 sums the replies in selection order, not
// arrival order. K = 5 of 12 devices per edge, so the sum has an order to
// get wrong.
func TestClusterStaticRunsBitIdentical(t *testing.T) {
	for _, strat := range []hfl.Strategy{core.NewGeneral(), core.NewMiddle()} {
		var first []float64
		for run := range 3 {
			cfg := membershipClusterConfig(t, 12, mobility.NewStatic(2, 24))
			cfg.Strategy, cfg.K, cfg.LeaseInterval = strat, 5, 0
			c, err := StartCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			got := c.GlobalModel()
			if run == 0 {
				first = got
				continue
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(first[i]) {
					t.Fatalf("%s: run %d's global model differs from run 0's at %d: %v vs %v",
						strat.Name(), run, i, got[i], first[i])
				}
			}
		}
	}
}

// TestClusterHoldsFirstRoundForAttach pins the start-up gate: no round
// starts before every device is attached, so a short static run trains
// exactly K devices per edge in every one of its rounds.
func TestClusterHoldsFirstRoundForAttach(t *testing.T) {
	const rounds, k, edges = 3, 2, 2
	c := clusterFixture(t, core.NewGeneral(), rounds, mobility.NewStatic(edges, 6))
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range c.DeviceRounds() {
		total += r
	}
	if total != rounds*k*edges {
		t.Fatalf("devices trained %d rounds in total (%v), want %d", total, c.DeviceRounds(), rounds*k*edges)
	}
}

// TestCloudWelcomesEveryEdge pins the one join handshake: a registering
// edge is welcomed at a fresh epoch with the default lease interval and
// the global model, its first round start — once a fleet has announced
// itself — carries that epoch, and losing the only edge bumps the epoch,
// counts a failover and ends the run.
func TestCloudWelcomesEveryEdge(t *testing.T) {
	reg := obs.NewRegistry()
	cloud, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: 1, Rounds: 5, CloudInterval: 1,
		InitModel: []float64{1, 2, 3}, Timeout: 5 * time.Second, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- cloud.Run() }()
	conn, err := net.Dial("tcp", cloud.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMsg(conn, MsgRegisterEdge, RegisterEdge{EdgeID: 0}, nil); err != nil {
		t.Fatal(err)
	}
	var w EdgeWelcome
	if typ, vec, err := ReadMsg(conn, &w); err != nil || typ != MsgEdgeWelcome || len(vec) != 3 ||
		w != (EdgeWelcome{Epoch: 1, LeaseMillis: 500, Rejoin: false}) {
		t.Fatalf("handshake: type %d, %+v, %d values, %v; want the welcome at epoch 1", typ, w, len(vec), err)
	}
	fleet, err := net.Dial("tcp", cloud.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if err := WriteMsg(fleet, MsgBoundary, Boundary{}, nil); err != nil {
		t.Fatal(err)
	}
	var rs RoundStart
	if typ, _, err := ReadMsg(conn, &rs); err != nil || typ != MsgRoundStart || rs.Round != 1 || rs.Epoch != 1 {
		t.Fatalf("first round start: type %d, %+v, %v", typ, rs, err)
	}
	conn.Close()
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "only 0 edges remain") {
			t.Fatalf("cloud survived losing its only edge: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cloud did not return after losing its only edge")
	}
	if cloud.Epoch() != 2 {
		t.Fatalf("epoch %d after one join and one death, want 2", cloud.Epoch())
	}
	if got := reg.Counter("fednet_edge_failovers_total").Value(); got != 1 {
		t.Fatalf("fednet_edge_failovers_total = %d, want 1", got)
	}
}

func TestClusterRejectsMismatchedSizes(t *testing.T) {
	prof := data.FastImageProfile(2)
	train := data.GenerateImagesSplit(prof, 40, 5, 5)
	part := data.PartitionMajorClass(train, 4, 10, 0.8, 1)
	mob := mobility.NewStatic(2, 6) // 6 ≠ 4
	_, err := StartCluster(ClusterConfig{
		Rounds: 1, K: 1, CloudInterval: 1,
		Strategy: core.NewGeneral(), Partition: part,
		Factory: func(rng *tensor.RNG) *nn.Network {
			return nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 2}, rng)
		},
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1},
		Mobility:  mob, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "devices") {
		t.Fatalf("mismatch accepted: %v", err)
	}
}

// TestDeviceSurvivesEdgeVanishing exercises the failure path: a client
// whose edge dies mid-session must wind its serve loop down cleanly.
func TestDeviceSurvivesEdgeVanishing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			// Consume the registration, ack it, then vanish.
			_, _, _ = ReadMsg(conn, &RegisterMux{})
			_ = WriteMsg(conn, MsgRegisterAck, RegisterAck{EdgeID: 0}, nil)
			conn.Close()
		}
		accepted <- conn
	}()
	dev := testClient(t, 1)
	if err := dev.Connect(1, 0, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	<-accepted
	// Disconnect must not hang even though the peer is gone.
	doneCh := make(chan struct{})
	go func() {
		dev.Disconnect()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Disconnect hung after edge vanished")
	}
	ln.Close()
}

// testClient builds a client hosting the given device ids on a tiny task.
func testClient(t *testing.T, ids ...int) *DeviceMux {
	t.Helper()
	train := data.GenerateImagesSplit(data.FastImageProfile(2), 20, 5, 5)
	var hosted []MuxDevice
	for _, id := range ids {
		hosted = append(hosted, MuxDevice{DeviceID: id, Indices: []int{0, 1, 2}})
	}
	mx, err := NewDeviceMux(DeviceMuxConfig{
		Devices: hosted, Dataset: train,
		pool: solo(func(rng *tensor.RNG) *nn.Network {
			return nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 2}, rng)
		}, hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1}.New()),
		Timeout: 2 * time.Second, population: slices.Max(ids) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// --- causal round tracing -----------------------------------------------------

// TestClusterTraceTree runs a full deployment with a shared trace and
// checks the device→edge→cloud spans of every round form one valid,
// correctly parented, monotonically ordered tree.
func TestClusterTraceTree(t *testing.T) {
	const rounds, cloudInterval = 6, 3
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
	trace := obs.NewTrace(0)
	c, err := StartCluster(ClusterConfig{
		Rounds: rounds, K: 2, LocalSteps: 2, BatchSize: 8, CloudInterval: cloudInterval,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 1, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	events := trace.Events()
	if err := obs.ValidateTraceEvents(events); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}

	// Round-trip through the JSON exporter: same validation must hold on
	// what a Perfetto user would actually load.
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if err := obs.ValidateTraceEvents(decoded); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	span := func(e obs.TraceEvent) string { p, _ := e.Args["span"].(string); return p }
	parent := func(e obs.TraceEvent) string { p, _ := e.Args["parent"].(string); return p }
	byName := map[string][]obs.TraceEvent{}
	byID := map[string]obs.TraceEvent{}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		byName[e.Name] = append(byName[e.Name], e)
		if id := span(e); id != "" {
			byID[id] = e
		}
	}

	cloudRounds := byName["cloud_round"]
	if len(cloudRounds) != rounds {
		t.Fatalf("cloud_round spans = %d, want %d", len(cloudRounds), rounds)
	}
	var lastEnd int64 = -1
	for i, e := range cloudRounds {
		if want := cloudRoundSpan(i + 1); span(e) != want {
			t.Fatalf("cloud_round[%d] span %q, want %q", i, span(e), want)
		}
		if parent(e) != "" {
			t.Fatalf("cloud_round[%d] has parent %q, want root", i, parent(e))
		}
		if e.Ts < lastEnd {
			t.Fatalf("cloud_round[%d] starts at %d before previous round ended at %d", i, e.Ts, lastEnd)
		}
		lastEnd = e.Ts + e.Dur
	}

	if got, want := len(byName["cloud_sync"]), rounds/cloudInterval; got != want {
		t.Fatalf("cloud_sync spans = %d, want %d", got, want)
	}
	for _, e := range byName["cloud_sync"] {
		if p := byID[parent(e)]; p.Name != "cloud_round" {
			t.Fatalf("cloud_sync %q parented on %q, want a cloud_round", span(e), parent(e))
		}
	}

	if got, want := len(byName["edge_round"]), rounds*mob.NumEdges(); got != want {
		t.Fatalf("edge_round spans = %d, want %d", got, want)
	}
	for _, e := range byName["edge_round"] {
		if p := byID[parent(e)]; p.Name != "cloud_round" {
			t.Fatalf("edge_round %q parented on %q, want a cloud_round", span(e), parent(e))
		}
	}

	rpcs := byName["train_rpc"]
	if len(rpcs) == 0 {
		t.Fatal("no train_rpc spans recorded")
	}
	for _, e := range rpcs {
		if p := byID[parent(e)]; p.Name != "edge_round" {
			t.Fatalf("train_rpc %q parented on %q, want an edge_round", span(e), parent(e))
		}
	}
	trains := byName["device_train"]
	if len(trains) != len(rpcs) {
		t.Fatalf("device_train spans = %d, train_rpc spans = %d, want equal", len(trains), len(rpcs))
	}
	for _, e := range trains {
		if p := byID[parent(e)]; p.Name != "train_rpc" {
			t.Fatalf("device_train %q parented on %q, want a train_rpc", span(e), parent(e))
		}
	}
}
