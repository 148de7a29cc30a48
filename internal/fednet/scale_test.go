package fednet

import (
	"testing"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/tensor"
)

// scaleFixtureConfig builds a small end-to-end deployment config; the
// caller sets Mux before StartCluster.
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

// TestMuxClusterTrains runs the same deployment with virtual-device
// multiplexing (3 devices per client) under mobility and checks that
// training proceeds, devices participate and the virtual-device gauge
// was populated.
func TestMuxClusterTrains(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := scaleFixtureConfig(t, mobility.NewMarkovRing(3, 9, 0.4, 7), 9)
	cfg.Mux = 3
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.fleet.clients) != 3 {
		t.Fatalf("9 devices at 3 per mux built %d multiplexers", len(c.fleet.clients))
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
	if len(c.fleet.clients) != 1 {
		t.Fatalf("expected one multiplexer, got %d", len(c.fleet.clients))
	}
	mx := c.fleet.clients[0]
	trained := 0
	for id := 0; id < 6; id++ {
		if mx.DeviceRounds(id) > 0 {
			if localModel(mx, id) == nil {
				t.Fatalf("virtual device %d trained but carries no local model", id)
			}
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no virtual device ever trained")
	}
}
