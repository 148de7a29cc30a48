package hfl

// Tests for the Byzantine-robustness layer wired through the simulation:
// the seeded adversary harness, validator + robust aggregator plumbing,
// the bit-identity contract of the defaults, and the reject-rate history
// column.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// TestRobustDefaultsBitIdentical pins the PR's central contract: with
// the robustness knobs at their zero values — and even with an explicit
// mean aggregator or a validator whose bound never fires — the run is
// bitwise identical to the plain engine.
func TestRobustDefaultsBitIdentical(t *testing.T) {
	run := func(mut func(*Config)) []float64 {
		f := newFixture(t, 0.5)
		cfg := smallConfig()
		if mut != nil {
			mut(&cfg)
		}
		s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
		s.Run()
		return s.cloud
	}
	base := run(nil)
	for name, mut := range map[string]func(*Config){
		"explicit mean":       func(c *Config) { c.Aggregator = robust.AggMean },
		"validator, no bound": func(c *Config) { c.Validate = robust.ValidatorConfig{Enabled: true} },
		"validator, huge bound": func(c *Config) {
			c.Validate = robust.ValidatorConfig{Enabled: true, NormBound: 1e12}
		},
	} {
		got := run(mut)
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("%s: cloud model diverges from defaults at %d: %v vs %v", name, i, got[i], base[i])
			}
		}
	}
}

// TestAdversaryRunDeterministic pins the adversary harness to its seed:
// the same (seed, fraction, scale) reproduces the exact corrupted run;
// changing the seed changes it.
func TestAdversaryRunDeterministic(t *testing.T) {
	run := func(advSeed int64) ([]float64, int) {
		f := newFixture(t, 0.5)
		cfg := smallConfig()
		cfg.Adversary = robust.Adversary{Fraction: 0.4, Scale: 2, Seed: advSeed}
		s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
		s.Run()
		return s.cloud, s.AdversaryCorruptions()
	}
	m1, c1 := run(9)
	m2, c2 := run(9)
	if c1 == 0 {
		t.Fatal("fraction 0.4 over 8 devices produced no corruptions — adversary harness inert")
	}
	if c1 != c2 {
		t.Fatalf("same adversary seed corrupted %d vs %d updates", c1, c2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("same adversary seed produced different cloud models")
		}
	}
	m3, _ := run(10)
	same := true
	for i := range m1 {
		if m1[i] != m3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different adversary seeds produced identical cloud models")
	}
}

// TestAdversaryCorruptionsCounted checks the corruption telemetry: the
// obs counter tracks the accessor, and the reject-rate plumbing reports
// rejections once the validator screens the corrupted updates.
func TestAdversaryValidatorRejects(t *testing.T) {
	f := newFixture(t, 0.5)
	reg := obs.NewRegistry()
	cfg := smallConfig()
	// The norm-bound pass only engages with ≥3 finite survivors in a
	// cohort; K=4 guarantees cohorts big enough to screen.
	cfg.K = 4
	cfg.Obs = reg
	cfg.Adversary = robust.Adversary{Fraction: 0.4, Scale: 20, Seed: 9}
	cfg.Validate = robust.ValidatorConfig{Enabled: true, NormBound: 3}
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	s.Run()
	if got := reg.Counter("hfl_adversary_corruptions_total").Value(); got != int64(s.AdversaryCorruptions()) {
		t.Fatalf("hfl_adversary_corruptions_total = %d, accessor says %d", got, s.AdversaryCorruptions())
	}
	rc := s.RejectedUpdates()
	if rc.Norm == 0 {
		t.Fatalf("norm bound 3 against scale-20 sign-flips rejected nothing (counts %+v)", rc)
	}
	if got := reg.Counter("robust_rejected_updates_total", "reason", "norm").Value(); got != int64(rc.Norm) {
		t.Fatalf("robust_rejected_updates_total{norm} = %d, accessor says %d", got, rc.Norm)
	}
	if rate := s.RejectionRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("rejection rate %v outside (0, 1)", rate)
	}
}

// chaosRun trains a 12-device/2-edge deployment under the given
// adversary and robustness settings and returns the final accuracy.
func chaosRun(t *testing.T, adv robust.Adversary, agg robust.AggregatorKind, validate robust.ValidatorConfig) float64 {
	t.Helper()
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 600, 5, 5)
	test := data.GenerateImagesSplit(prof, 150, 5, 77)
	part := data.PartitionMajorClass(train, 12, 50, 0.85, 6)
	mob := mobility.NewMarkov(2, 12, 0.3, 7)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(test.SampleSize(), 24, rng),
			nn.NewReLU(),
			nn.NewLinear(24, test.Classes, rng),
		)
	}
	cfg := Config{
		Seed: 1, K: 6, LocalSteps: 3, CloudInterval: 5, BatchSize: 8,
		Steps: 20, EvalEvery: 20, Parallelism: 2,
		Optimizer: OptimizerSpec{Kind: OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Adversary: adv, Aggregator: agg, Validate: validate,
	}
	s := New(cfg, factory, part, test, mob, &spyStrategy{})
	return s.Run().FinalAcc()
}

// TestAdversaryTrimmedMeanResists is the end-to-end robustness
// acceptance: with ≥20% of devices sign-flipping their updates, the
// robust stack (trimmed mean + adaptive norm bound) stays within 5
// accuracy points of the fault-free run, while the plain weighted mean
// visibly degrades.
func TestAdversaryTrimmedMeanResists(t *testing.T) {
	adv := robust.Adversary{Fraction: 0.25, Scale: 20, Seed: 3}
	robustStack := robust.ValidatorConfig{Enabled: true, NormBound: 3}
	clean := chaosRun(t, robust.Adversary{}, robust.AggMean, robust.ValidatorConfig{})
	cleanRobust := chaosRun(t, robust.Adversary{}, robust.AggTrimmedMean, robustStack)
	poisonedMean := chaosRun(t, adv, robust.AggMean, robust.ValidatorConfig{})
	poisonedRobust := chaosRun(t, adv, robust.AggTrimmedMean, robustStack)
	t.Logf("clean mean %.4f, clean trimmed+bound %.4f, poisoned mean %.4f, poisoned trimmed+bound %.4f",
		clean, cleanRobust, poisonedMean, poisonedRobust)
	if clean < 0.4 || cleanRobust < 0.4 {
		t.Fatalf("fault-free baselines only reached %.4f/%.4f — fixture too weak to discriminate", clean, cleanRobust)
	}
	if cleanRobust-poisonedRobust > 0.05 {
		t.Fatalf("robust stack lost %.4f accuracy to the adversaries (fault-free %.4f, poisoned %.4f)",
			cleanRobust-poisonedRobust, cleanRobust, poisonedRobust)
	}
	if clean-poisonedMean < 0.10 {
		t.Fatalf("plain mean barely degraded (clean %.4f, poisoned %.4f) — adversaries too weak for this test to mean anything",
			clean, poisonedMean)
	}
}

// TestNonFiniteLossGuard forces divergence with an absurd learning rate
// and checks the training loop skips non-finite steps instead of
// propagating NaN into the parameters it keeps training on.
func TestNonFiniteLossGuard(t *testing.T) {
	f := newFixture(t, 0.5)
	reg := obs.NewRegistry()
	cfg := smallConfig()
	cfg.Obs = reg
	cfg.Optimizer = OptimizerSpec{Kind: OptSGD, LR: 1e12}
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	s.Run()
	if s.NonFiniteSteps() == 0 {
		t.Fatal("LR 1e12 never produced a non-finite loss — guard untested")
	}
	if got := reg.Counter("hfl_nonfinite_steps_total").Value(); got != s.NonFiniteSteps() {
		t.Fatalf("hfl_nonfinite_steps_total = %d, accessor says %d", got, s.NonFiniteSteps())
	}
}

// TestRobustAggregatorsKeepModelFinite runs the trimmed mean against
// scale-10 sign-flip adversaries and checks the cloud model stays finite.
func TestRobustAggregatorsKeepModelFinite(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.Aggregator = robust.AggTrimmedMean
	cfg.Adversary = robust.Adversary{Fraction: 0.3, Scale: 10, Seed: 5}
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	s.Run()
	for i, v := range s.cloud {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("cloud[%d] = %v under sign-flip adversaries", i, v)
		}
	}
}

// TestHistoryCSVRejectRate round-trips the new reject_rate column.
func TestHistoryCSVRejectRate(t *testing.T) {
	h := &History{Strategy: "middle"}
	h.AppendPoint(EvalPoint{Step: 5, GlobalAcc: 0.25, RejectRate: 0.125})
	h.AppendPoint(EvalPoint{Step: 10, GlobalAcc: 0.5, RejectRate: 0.0625})
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "reject_rate") {
		t.Fatalf("header missing reject_rate: %s", buf.String())
	}
	got, err := ReadHistoryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round-trip rows %d, want 2", got.Len())
	}
	for i, want := range h.RejectRate {
		if got.RejectRate[i] != want {
			t.Fatalf("reject_rate[%d] = %v, want %v", i, got.RejectRate[i], want)
		}
	}
}
