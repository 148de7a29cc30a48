package hfl

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/tensor"
)

// fixture assembles a small but real federated setup: 4-class synthetic
// images, 8 devices with major-class Non-IID shards, 2 edges, Markov
// mobility.
type fixture struct {
	part *data.Partition
	test *data.Dataset
	mob  mobility.Model
}

func newFixture(t *testing.T, p float64) fixture {
	t.Helper()
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 400, 5, 5)
	test := data.GenerateImagesSplit(prof, 120, 5, 77)
	part := data.PartitionMajorClass(train, 8, 40, 0.85, 6)
	mob := mobility.NewMarkov(2, 8, p, 7)
	return fixture{part: part, test: test, mob: mob}
}

func mlpFactory(classes, in int) ModelFactory {
	return func(rng *tensor.RNG) *nn.Network {
		return nn.NewMLP(nn.MLPConfig{In: in, Classes: classes, Hidden: []int{16}}, rng)
	}
}

// flattenFactory adapts image datasets to the MLP by flattening; the MLP
// input is the full sample size.
func (f fixture) factory() ModelFactory {
	return func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(f.test.SampleSize(), 24, rng),
			nn.NewReLU(),
			nn.NewLinear(24, f.test.Classes, rng),
		)
	}
}

func smallConfig() Config {
	return Config{
		Seed: 1, K: 2, LocalSteps: 3, CloudInterval: 5, BatchSize: 8,
		Steps: 10, EvalEvery: 5, Parallelism: 2,
		Optimizer: OptimizerSpec{Kind: OptSGDMomentum, LR: 0.05, Momentum: 0.9},
	}
}

// spyStrategy wraps General-style behaviour while recording calls. The
// engine calls Select for different edges concurrently, so the Select
// tallies sit behind mu; InitLocal runs on the engine's own goroutine.
type spyStrategy struct {
	movedSeen []bool

	mu          sync.Mutex
	selectCalls int
	maxSelected int
}

func (s *spyStrategy) Name() string { return "spy" }

func (s *spyStrategy) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	s.mu.Lock()
	s.selectCalls++
	if k > s.maxSelected {
		s.maxSelected = k
	}
	s.mu.Unlock()
	return candidates[:k]
}

func (s *spyStrategy) InitLocal(v View, device, edge int, moved bool) []float64 {
	s.movedSeen = append(s.movedSeen, moved)
	return append([]float64(nil), v.EdgeModel(edge)...)
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	f1 := newFixture(t, 0.5)
	f2 := newFixture(t, 0.5)
	s1 := New(smallConfig(), f1.factory(), f1.part, f1.test, f1.mob, &spyStrategy{})
	s2 := New(smallConfig(), f2.factory(), f2.part, f2.test, f2.mob, &spyStrategy{})
	h1 := s1.Run()
	h2 := s2.Run()
	if len(h1.GlobalAcc) != len(h2.GlobalAcc) {
		t.Fatalf("eval counts differ: %d vs %d", len(h1.GlobalAcc), len(h2.GlobalAcc))
	}
	for i := range h1.GlobalAcc {
		if h1.GlobalAcc[i] != h2.GlobalAcc[i] {
			t.Fatalf("accuracy differs at eval %d: %v vs %v", i, h1.GlobalAcc[i], h2.GlobalAcc[i])
		}
	}
	for i := range s1.cloud {
		if s1.cloud[i] != s2.cloud[i] {
			t.Fatal("cloud models differ between identical runs")
		}
	}
}

func TestSimDeterministicAcrossParallelism(t *testing.T) {
	runWith := func(par int) []float64 {
		f := newFixture(t, 0.5)
		cfg := smallConfig()
		cfg.Parallelism = par
		s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
		s.Run()
		return s.cloud
	}
	a := runWith(1)
	b := runWith(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cloud differs between parallelism 1 and 4 at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCloudSyncResetsEdgesAndLocals(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.Steps = cfg.CloudInterval // exactly one sync
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	s.Run()
	for n := 0; n < s.NumEdges(); n++ {
		for i := range s.cloud {
			if s.edges[n][i] != s.cloud[i] {
				t.Fatalf("edge %d not synced to cloud after T_c", n)
			}
		}
	}
	for m := 0; m < s.NumDevices(); m++ {
		for i := range s.cloud {
			if s.LocalModel(m)[i] != s.cloud[i] {
				t.Fatalf("device %d not synced to cloud after T_c", m)
			}
		}
	}
}

func TestCloudModelChangesAtSync(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.Steps = cfg.CloudInterval
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	before := append([]float64(nil), s.cloud...)
	// Before the sync step the cloud must stay fixed.
	for i := 0; i < cfg.CloudInterval-1; i++ {
		s.StepOnce()
		for j := range before {
			if s.cloud[j] != before[j] {
				t.Fatalf("cloud changed at step %d before T_c", s.Step())
			}
		}
	}
	s.StepOnce()
	changed := false
	for j := range before {
		if s.cloud[j] != before[j] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("cloud did not change at the T_c sync step")
	}
}

func TestStaticMobilityNeverReportsMoved(t *testing.T) {
	f := newFixture(t, 0)
	f.mob = mobility.NewStatic(2, 8)
	spy := &spyStrategy{}
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, spy)
	s.Run()
	for _, m := range spy.movedSeen {
		if m {
			t.Fatal("static mobility produced moved=true")
		}
	}
	if s.ObservedMobility() != 0 {
		t.Fatalf("observed mobility %v under static model", s.ObservedMobility())
	}
}

func TestFullMobilityReportsMoves(t *testing.T) {
	f := newFixture(t, 1.0)
	spy := &spyStrategy{}
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, spy)
	s.Run()
	if got := s.ObservedMobility(); got != 1.0 {
		t.Fatalf("observed mobility %v with P=1", got)
	}
	anyMoved := false
	for _, m := range spy.movedSeen {
		if m {
			anyMoved = true
		}
	}
	if !anyMoved {
		t.Fatal("no InitLocal saw moved=true with P=1")
	}
}

func TestSelectionRespectsK(t *testing.T) {
	f := newFixture(t, 0.5)
	spy := &spyStrategy{}
	cfg := smallConfig()
	cfg.K = 3
	s := New(cfg, f.factory(), f.part, f.test, f.mob, spy)
	s.Run()
	if spy.maxSelected > 3 {
		t.Fatalf("selected %d devices with K=3", spy.maxSelected)
	}
	if spy.selectCalls == 0 {
		t.Fatal("Select was never called")
	}
}

func TestStatUtilityAndLastTrainedUpdate(t *testing.T) {
	f := newFixture(t, 0.5)
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	for m := 0; m < s.NumDevices(); m++ {
		if !math.IsNaN(s.StatUtility(m)) || s.LastTrained(m) != -1 {
			t.Fatalf("device %d has training history before any step", m)
		}
	}
	s.StepOnce()
	trained := 0
	for m := 0; m < s.NumDevices(); m++ {
		if s.LastTrained(m) == 1 {
			trained++
			if math.IsNaN(s.StatUtility(m)) || s.StatUtility(m) <= 0 {
				t.Fatalf("trained device %d has utility %v", m, s.StatUtility(m))
			}
		}
	}
	if trained == 0 || trained > s.NumEdges()*smallConfig().K {
		t.Fatalf("trained device count %d implausible", trained)
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 600, 9, 9)
	test := data.GenerateImagesSplit(prof, 200, 9, 91)
	part := data.PartitionIID(train, 8, 60, 3)
	mob := mobility.NewMarkov(2, 8, 0.3, 4)
	cfg := Config{
		Seed: 2, K: 3, LocalSteps: 5, CloudInterval: 5, BatchSize: 16,
		Steps: 30, EvalEvery: 30,
		Optimizer: OptimizerSpec{Kind: OptSGDMomentum, LR: 0.05, Momentum: 0.9},
	}
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(test.SampleSize(), 24, rng),
			nn.NewReLU(),
			nn.NewLinear(24, test.Classes, rng),
		)
	}
	s := New(cfg, factory, part, test, mob, &spyStrategy{})
	acc0, _ := s.EvaluateVector(s.CloudModel(), 0, false)
	h := s.Run()
	if h.FinalAcc() <= acc0+0.2 {
		t.Fatalf("federated training barely improved: %v -> %v", acc0, h.FinalAcc())
	}
}

func TestGlobalLossDecreases(t *testing.T) {
	f := newFixture(t, 0.3)
	cfg := smallConfig()
	cfg.Steps = 15
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	before := s.GlobalLoss(s.CloudModel(), 10)
	s.Run()
	after := s.GlobalLoss(s.CloudModel(), 10)
	if after >= before {
		t.Fatalf("global loss did not decrease: %v -> %v", before, after)
	}
}

func TestEvaluateVectorOnClasses(t *testing.T) {
	f := newFixture(t, 0.3)
	s := New(smallConfig(), f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	all, perClass := s.EvaluateVector(s.CloudModel(), 0, true)
	sub := s.EvaluateVectorOnClasses(s.CloudModel(), []int{0, 1}, 0)
	if sub < 0 || sub > 1 || all < 0 || all > 1 {
		t.Fatalf("accuracies out of range: %v %v", all, sub)
	}
	if len(perClass) != 4 {
		t.Fatalf("per-class length %d", len(perClass))
	}
	// Subset accuracy must be consistent with its per-class components
	// (test set is balanced, so it is their mean).
	want := (perClass[0] + perClass[1]) / 2
	if math.Abs(sub-want) > 1e-9 {
		t.Fatalf("class-subset accuracy %v, want %v", sub, want)
	}
}

func TestHistoryRecordingAndCSV(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.EvalEvery = 5
	cfg.EvalEdges = true
	cfg.EvalPerClass = true
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	h := s.Run()
	if h.Len() != 2 { // steps 5 and 10
		t.Fatalf("eval events %d, want 2 (steps %v)", h.Len(), h.Steps)
	}
	if h.Steps[0] != 5 || h.Steps[1] != 10 {
		t.Fatalf("eval steps %v", h.Steps)
	}
	if len(h.PerClassAcc[0]) != 4 || len(h.EdgeAcc[0]) != 2 {
		t.Fatalf("per-class/edge dims %d/%d", len(h.PerClassAcc[0]), len(h.EdgeAcc[0]))
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "step,global_acc,class0_acc") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

func TestTimeToAccuracy(t *testing.T) {
	h := &History{}
	h.Append(5, 0.2, nil, nil)
	h.Append(10, 0.6, nil, nil)
	h.Append(15, 0.5, nil, nil)
	if step, ok := h.TimeToAccuracy(0.55); !ok || step != 10 {
		t.Fatalf("TimeToAccuracy = %d, %v", step, ok)
	}
	if _, ok := h.TimeToAccuracy(0.9); ok {
		t.Fatal("TimeToAccuracy reported unreached target")
	}
	if h.FinalAcc() != 0.5 {
		t.Fatalf("FinalAcc = %v", h.FinalAcc())
	}
}

func TestTopKByScore(t *testing.T) {
	rng := tensor.NewRNG(1)
	cands := []int{10, 20, 30, 40}
	scores := map[int]float64{10: 0.1, 20: 0.9, 30: 0.5, 40: 0.7}
	got := TopKByScore(cands, func(m int) float64 { return scores[m] }, 2, rng)
	if len(got) != 2 {
		t.Fatalf("TopK returned %v", got)
	}
	set := map[int]bool{got[0]: true, got[1]: true}
	if !set[20] || !set[40] {
		t.Fatalf("TopK = %v, want {20, 40}", got)
	}
	// k larger than candidates.
	if got := TopKByScore(cands, func(int) float64 { return 0 }, 10, rng); len(got) != 4 {
		t.Fatalf("overlong TopK = %v", got)
	}
	if got := TopKByScore(nil, func(int) float64 { return 0 }, 3, rng); got != nil {
		t.Fatalf("empty TopK = %v", got)
	}
}

func TestMismatchedDeviceCountsPanic(t *testing.T) {
	f := newFixture(t, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(smallConfig(), f.factory(), f.part, f.test, mobility.NewMarkov(2, 9, 0.5, 1), &spyStrategy{})
}

func TestOptimizerSpecUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OptimizerSpec{Kind: "nope", LR: 0.1}.New()
}

func TestMLPFactoryHelper(t *testing.T) {
	// Exercise the shared helper to keep it honest.
	net := mlpFactory(3, 7)(tensor.NewRNG(1))
	if net.NumParams() == 0 {
		t.Fatal("mlpFactory built an empty network")
	}
}
