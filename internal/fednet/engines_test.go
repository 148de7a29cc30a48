package fednet

// The deployment and the simulator are one algorithm: both take a round's
// draws (the cohort rule, the selection and minibatch streams) from hfl,
// so on a static run StartCluster computes hfl.Sim's global model.

import (
	"maps"
	"math"
	"slices"
	"testing"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// syncTap is a mobility model that copies the cluster's global model at
// every boundary that follows a cloud sync. Its Step calls after the first
// (StartCluster's) wait until ready closes, so no boundary passes before
// the test has stored the cluster.
type syncTap struct {
	mobility.Model
	every   int
	ready   chan struct{}
	cluster *Cluster
	calls   int
	syncs   [][]float64 // touched only by the goroutine calling Step
}

func (s *syncTap) Step() []int {
	if s.calls++; s.calls > 1 {
		<-s.ready
		if r := s.calls - 1; r%s.every == 0 {
			s.syncs = append(s.syncs, s.cluster.GlobalModel())
		}
	}
	return s.Model.Step()
}

// TestClusterMatchesSimulator runs StartCluster and hfl.Sim side by side
// on one static run — 2 edges × 6 devices, MIDDLE, K = 3, T_c = 5, 30
// rounds — under each combiner, with and without the norm screen, and
// requires the cluster's cloud model to equal the simulator's bit for bit
// after every sync, and both engines to reject the same updates. Both
// engines' Select must see the same Step() and the same candidates in
// every (round, edge). Eq. 6 sums each cohort in selection order and Eq. 7
// the edges in id order in both, so no tolerance is needed.
func TestClusterMatchesSimulator(t *testing.T) {
	for _, tc := range []struct {
		name     string
		agg      robust.AggregatorKind
		validate robust.ValidatorConfig
	}{
		{"mean", robust.AggMean, robust.ValidatorConfig{}},
		{"mean-screened", robust.AggMean, robust.ValidatorConfig{Enabled: true, NormBound: 1.2}},
		{"trimmed", robust.AggTrimmedMean, robust.ValidatorConfig{}},
		{"trimmed-screened", robust.AggTrimmedMean, robust.ValidatorConfig{Enabled: true, NormBound: 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) { matchSimulator(t, tc.agg, tc.validate) })
	}
}

func matchSimulator(t *testing.T, agg robust.AggregatorKind, validate robust.ValidatorConfig) {
	const edges, devices, k, tc, rounds, seed = 2, 12, 3, 5, 30, 4
	train := data.GenerateImagesSplit(data.FastImageProfile(4), 400, 5, 5)
	part := data.PartitionMajorClass(train, devices, 30, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(train.SampleSize(), 16, rng), nn.NewReLU(),
			nn.NewLinear(16, train.Classes, rng))
	}
	opt := hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9}

	simSpy := &spyStrategy{Strategy: core.NewMiddle(), seen: map[[2]int][]int{}}
	sim := hfl.New(hfl.Config{Seed: seed, K: k, LocalSteps: 2, CloudInterval: tc, BatchSize: 8, Steps: rounds,
		Parallelism: 2, Optimizer: opt, Aggregator: agg, Validate: validate},
		factory, part, nil, mobility.NewStatic(edges, devices), simSpy)
	var want [][]float64
	for sim.Step() < rounds {
		if sim.StepOnce()%tc == 0 {
			want = append(want, slices.Clone(sim.CloudModel()))
		}
	}

	netSpy := &spyStrategy{Strategy: core.NewMiddle(), seen: map[[2]int][]int{}}
	tap := &syncTap{Model: mobility.NewStatic(edges, devices), every: tc, ready: make(chan struct{})}
	reg := obs.NewRegistry()
	c, err := StartCluster(ClusterConfig{Rounds: rounds, K: k, LocalSteps: 2, BatchSize: 8, CloudInterval: tc,
		Strategy: netSpy, Partition: part, Factory: factory, Optimizer: opt, Mobility: tap, Seed: seed, Mux: 2,
		Aggregator: agg, Validate: validate, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	tap.cluster = c
	close(tap.ready)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	if len(simSpy.seen) != edges*rounds || !maps.EqualFunc(simSpy.seen, netSpy.seen, slices.Equal) {
		for r := 1; r <= rounds; r++ {
			for e := range edges {
				if got, want := netSpy.seen[[2]int{r, e}], simSpy.seen[[2]int{r, e}]; !slices.Equal(got, want) {
					t.Errorf("Step() %d, edge %d: the deployment selected from %v, the simulator from %v", r, e, got, want)
				}
			}
		}
		t.Fatalf("the engines' Select calls differ (%d by the simulator, %d by the deployment)", len(simSpy.seen), len(netSpy.seen))
	}
	if len(tap.syncs) != len(want) {
		t.Fatalf("the deployment synced %d times, the simulator %d", len(tap.syncs), len(want))
	}
	for i, got := range tap.syncs {
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("after the sync of round %d the cloud models differ at %d: deployment %v, simulator %v",
					(i+1)*tc, j, got[j], want[i][j])
			}
		}
	}

	rc := sim.RejectedUpdates()
	nonfinite := reg.Counter("robust_rejected_updates_total", "reason", robust.ReasonNonFinite).Value()
	norm := reg.Counter("robust_rejected_updates_total", "reason", robust.ReasonNorm).Value()
	if nonfinite != int64(rc.NonFinite) || norm != int64(rc.Norm) {
		t.Fatalf("the deployment rejected %d non-finite and %d by norm, the simulator %+v", nonfinite, norm, rc)
	}
	t.Logf("both engines rejected %d non-finite and %d by norm", rc.NonFinite, rc.Norm)
	if validate.NormBound > 0 && rc.Norm == 0 {
		t.Fatal("the norm screen rejected nothing: the case does not exercise it")
	}
}
