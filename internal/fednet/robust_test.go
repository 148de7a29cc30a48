package fednet

// Tests for the Byzantine fault kinds (poisoned/NaN updates rewritten in
// transit with a valid CRC), the validator screening them out of the
// aggregation, and edge crash recovery from checkpoints.

import (
	"bytes"
	"math"
	"testing"
	"time"

	"middle/internal/checkpoint"
	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// TestRewriteVectorRoundTrip pins the Byzantine frame rewrite: the
// payload floats are transformed, the JSON header survives untouched and
// the recomputed CRC lets the frame decode cleanly — a poisoned update
// must reach validation, not die at the transport layer.
func TestRewriteVectorRoundTrip(t *testing.T) {
	mk := func() []byte {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, MsgTrainReply, TrainReply{DeviceID: 3, Round: 7}, []float64{1, -2.5, 0, 4}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Sign flip: every float negated, header intact, CRC valid.
	flipped := rewriteVector(mk(), func(v float64) float64 { return -v })
	var reply TrainReply
	mt, vec, err := ReadMsg(bytes.NewReader(flipped), &reply)
	if err != nil {
		t.Fatalf("sign-flipped frame failed to decode: %v", err)
	}
	if mt != MsgTrainReply || reply.DeviceID != 3 || reply.Round != 7 {
		t.Fatalf("header damaged by rewrite: type %d, %+v", mt, reply)
	}
	for i, want := range []float64{-1, 2.5, 0, -4} {
		if vec[i] != want {
			t.Fatalf("vec[%d] = %v, want %v", i, vec[i], want)
		}
	}

	// NaN injection: all values non-finite, frame still decodes.
	nan := rewriteVector(mk(), func(float64) float64 { return math.NaN() })
	if _, vec, err = ReadMsg(bytes.NewReader(nan), &reply); err != nil {
		t.Fatalf("NaN frame failed to decode: %v", err)
	}
	for i, v := range vec {
		if !math.IsNaN(v) {
			t.Fatalf("vec[%d] = %v, want NaN", i, v)
		}
	}

	// A frame with no vector passes through untouched.
	var buf bytes.Buffer
	if err := WriteMsg(&buf, MsgRoundStart, RoundStart{Round: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := rewriteVector(buf.Bytes(), func(v float64) float64 { return -v }); !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("vector-less frame was modified")
	}
}

// TestClusterPoisonedUpdatesRejected runs a deployment whose device–edge
// links poison and NaN-corrupt a fraction of the train replies, with the
// validator and trimmed mean switched on: the rejection counters must
// fire and the global model must stay finite.
func TestClusterPoisonedUpdatesRejected(t *testing.T) {
	mob := mobility.NewStatic(1, 6)
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 240, 3, 5)
	part := data.PartitionMajorClass(train, 6, 30, 0.85, 6)
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
		Rounds: 8, K: 6, LocalSteps: 1, BatchSize: 8, CloudInterval: 2,
		Strategy: core.NewGeneral(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.05},
		Mobility:  mob, Seed: 2,
		Timeout:    3 * time.Second,
		Aggregator: robust.AggTrimmedMean,
		Validate:   robust.ValidatorConfig{Enabled: true, NormBound: 4},
		Faults: &FaultConfig{
			Seed:       31,
			DeviceEdge: FaultRates{Poison: 0.15, NaNUpdate: 0.1},
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("poisoned run failed with a real error: %v", err)
	}
	for i, v := range c.GlobalModel() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global model[%d] = %v despite validation", i, v)
		}
	}
	injected := reg.Counter("fednet_injected_faults_total", "kind", "poison").Value() +
		reg.Counter("fednet_injected_faults_total", "kind", "nan").Value()
	if injected == 0 {
		t.Fatal("no Byzantine faults injected — rates or wiring broken")
	}
	nonfinite := reg.Counter("robust_rejected_updates_total", "reason", "nonfinite").Value()
	norm := reg.Counter("robust_rejected_updates_total", "reason", "norm").Value()
	if nonfinite == 0 {
		t.Fatalf("NaN updates injected but none rejected (norm rejections: %d)", norm)
	}
	if nonfinite+norm == 0 {
		t.Fatal("Byzantine updates injected but robust_rejected_updates_total never moved")
	}
	t.Logf("injected %d Byzantine frames; rejected %d non-finite, %d by norm bound",
		injected, nonfinite, norm)
}

// TestEdgeCheckpointResume runs a cluster with edge checkpointing on,
// then rebuilds edge 0 over the same directory and checks it restores
// the checkpointed round and model — the edge-tier crash recovery path.
func TestEdgeCheckpointResume(t *testing.T) {
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
	reg := obs.NewRegistry()
	c, err := StartCluster(ClusterConfig{
		Rounds: 6, K: 2, LocalSteps: 1, BatchSize: 8, CloudInterval: 2,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.05},
		Mobility:  mob, Seed: 4,
		CheckpointDir: dir, EdgeCheckpoints: true,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fednet_checkpoints_total").Value(); got == 0 {
		t.Fatal("edge checkpointing enabled but fednet_checkpoints_total never moved")
	}

	// Both edges and the cloud share the directory; each name resolves to
	// its own latest record.
	st, ok, err := checkpoint.LoadLatestNamed(dir, "edge0")
	if err != nil || !ok {
		t.Fatalf("no edge0 checkpoint after run: ok=%v err=%v", ok, err)
	}
	if st.Round != 6 {
		t.Fatalf("edge0 checkpoint at round %d, want 6", st.Round)
	}
	if _, ok, _ := checkpoint.LoadLatestNamed(dir, "global"); !ok {
		t.Fatal("cloud checkpoint missing from the shared directory")
	}

	// "Restart" edge 0 over the same directory.
	resumed, err := NewEdge(EdgeConfig{
		EdgeID: 0, CloudAddr: "127.0.0.1:1", Addr: "127.0.0.1:0",
		K: 2, Strategy: core.NewMiddle(), Seed: 4,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.ln.Close()
	if !resumed.resumed {
		t.Fatal("edge did not mark itself resumed")
	}
	if resumed.curRound != st.Round || resumed.lastSync != st.Round {
		t.Fatalf("resumed at round %d (lastSync %d), want %d", resumed.curRound, resumed.lastSync, st.Round)
	}
	if len(resumed.edgeModel) != len(st.Model) {
		t.Fatalf("resumed model length %d, want %d", len(resumed.edgeModel), len(st.Model))
	}
	for i := range st.Model {
		if resumed.edgeModel[i] != st.Model[i] {
			t.Fatalf("resumed model differs from checkpoint at %d", i)
		}
	}
	if resumed.weight != st.EdgeWeights[0] {
		t.Fatalf("resumed weight %v, want %v", resumed.weight, st.EdgeWeights[0])
	}
}
