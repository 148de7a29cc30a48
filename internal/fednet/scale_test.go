package fednet

import (
	"math"
	"testing"

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

// TestShardAggEquivalence pins the shard-merge math: for K ∈ {1, 2, 7}
// the streamed per-shard partial sums, merged by the final BLAS-1
// sweep, must agree with the gathered weighted mean to within FP
// reassociation error.
func TestShardAggEquivalence(t *testing.T) {
	rng := tensor.NewRNG(42)
	const dim, edges = 131, 11
	vecs := make([][]float64, edges)
	weights := make([]float64, edges)
	for e := range vecs {
		vecs[e] = make([]float64, dim)
		for i := range vecs[e] {
			vecs[e][i] = rng.Float64()*4 - 2
		}
		weights[e] = float64(10 + rng.Intn(90))
	}
	want := simil.WeightedAverage(vecs, weights)

	for _, k := range []int{1, 2, 7} {
		sagg := newShardAgg(k, dim)
		for e := range vecs {
			if err := sagg.add(e, vecs[e], weights[e]); err != nil {
				t.Fatalf("K=%d: add edge %d: %v", k, e, err)
			}
		}
		got := make([]float64, dim)
		if !sagg.mergeInto(got) {
			t.Fatalf("K=%d: merge reported no contributions", k)
		}
		if sagg.edges != edges {
			t.Fatalf("K=%d: folded %d edges, want %d", k, sagg.edges, edges)
		}
		for i := range want {
			if diff := math.Abs(got[i] - want[i]); diff > 1e-12*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("K=%d: coordinate %d diverges: got %v want %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestShardAggEmptyAndMismatch(t *testing.T) {
	sagg := newShardAgg(3, 4)
	dst := []float64{1, 2, 3, 4}
	if sagg.mergeInto(dst) {
		t.Fatal("empty shard aggregator claimed contributions")
	}
	if dst[0] != 1 {
		t.Fatal("empty merge touched dst")
	}
	if err := sagg.add(0, []float64{1, 2}, 5); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestShardConfigRejected pins the nonsensical-combination rejection:
// partial sums cannot express robust aggregation or screening.
func TestShardConfigRejected(t *testing.T) {
	base := CloudConfig{
		Addr: "127.0.0.1:0", Edges: 2, Rounds: 4, CloudInterval: 2,
		InitModel: []float64{0, 0}, Shards: 2,
	}
	bad := base
	bad.Aggregator = robust.AggMedian
	if _, err := NewCloud(bad); err == nil {
		t.Fatal("sharded cloud accepted a median aggregator")
	}
	bad = base
	bad.Validate = robust.ValidatorConfig{Enabled: true}
	if _, err := NewCloud(bad); err == nil {
		t.Fatal("sharded cloud accepted a validator")
	}
	c, err := NewCloud(base)
	if err != nil {
		t.Fatalf("plain sharded config rejected: %v", err)
	}
	c.ln.Close()
}

// scaleFixtureConfig builds a small end-to-end deployment config; the
// caller toggles Shards/Mux before StartCluster.
func scaleFixtureConfig(t *testing.T, mob mobility.Model, rounds int) ClusterConfig {
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
	}
}

// TestShardedClusterTrains runs a deployment with a 2-shard cloud and
// checks the run completes with a finite, changed global model.
func TestShardedClusterTrains(t *testing.T) {
	cfg := scaleFixtureConfig(t, mobility.NewMarkovRing(3, 9, 0.4, 7), 6)
	cfg.Shards = 2
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := c.GlobalModel()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	after := c.GlobalModel()
	changed := false
	for i := range after {
		if math.IsNaN(after[i]) || math.IsInf(after[i], 0) {
			t.Fatalf("sharded global model has non-finite coordinate %d", i)
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("sharded cloud never updated the global model")
	}
}

// TestMuxClusterTrains runs the same deployment with virtual-device
// multiplexing (3 devices per client) under mobility and checks that
// training proceeds, devices participate and the virtual-device gauge
// was populated.
func TestMuxClusterTrains(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := scaleFixtureConfig(t, mobility.NewMarkovRing(3, 9, 0.4, 7), 9)
	cfg.Mux = 3
	cfg.Shards = 2
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.clients) != 3 {
		t.Fatalf("9 devices at 3 per mux built %d multiplexers", len(c.clients))
	}
	gauge := reg.Gauge("fednet_virtual_devices")
	if gauge.Value() <= 0 {
		t.Fatal("fednet_virtual_devices gauge never rose after attach")
	}
	before := c.GlobalModel()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	after := c.GlobalModel()
	changed := false
	for i := range after {
		if after[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("mux cluster never updated the global model")
	}
	total := 0
	for _, r := range c.DeviceRounds() {
		total += r
	}
	if total == 0 || total > 9*3*2 {
		t.Fatalf("device training rounds total %d outside (0, %d]", total, 9*3*2)
	}
	if c.MoveErrors() != 0 {
		t.Fatalf("%d virtual-device migrations failed", c.MoveErrors())
	}
}

// TestMuxMoveKeepsCarriedModel exercises the mux move path directly: a
// virtual device that trained at one edge keeps its carried local model
// when the multiplexer re-registers it at another edge.
func TestMuxMoveKeepsCarriedModel(t *testing.T) {
	cfg := scaleFixtureConfig(t, mobility.NewStatic(2, 6), 6)
	cfg.Mux = 6 // all devices on one multiplexer, attached to both edges
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(c.clients) != 1 {
		t.Fatalf("expected one multiplexer, got %d", len(c.clients))
	}
	mx := c.clients[0]
	trained := 0
	for id := 0; id < 6; id++ {
		if mx.DeviceRounds(id) > 0 {
			if mx.LocalModel(id) == nil {
				t.Fatalf("virtual device %d trained but carries no local model", id)
			}
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no virtual device ever trained")
	}
}
