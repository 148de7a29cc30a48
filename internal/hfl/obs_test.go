package hfl

import (
	"bytes"
	"strings"
	"testing"

	"middle/internal/obs"
)

// TestSimObsMetrics runs a small simulation with a metrics registry and
// checks that the per-phase timings and counters land in it, that the
// always-on PhaseTimes breakdown agrees, and that the result is
// identical to an uninstrumented run (metrics must not perturb the
// simulation).
func TestSimObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig()
	cfg.Obs = reg
	f := newFixture(t, 0.5)
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	h := s.Run()

	if got := reg.Counter("sim_steps_total").Value(); got != int64(cfg.Steps) {
		t.Fatalf("sim_steps_total = %d, want %d", got, cfg.Steps)
	}
	if got := reg.Counter("sim_cloud_syncs_total").Value(); got != int64(cfg.Steps/cfg.CloudInterval) {
		t.Fatalf("sim_cloud_syncs_total = %d, want %d", got, cfg.Steps/cfg.CloudInterval)
	}
	if got := reg.Counter("sim_evals_total").Value(); got != int64(h.Len()) {
		t.Fatalf("sim_evals_total = %d, want %d", got, h.Len())
	}
	if got := reg.Counter("sim_move_opportunities_total").Value(); got != int64(cfg.Steps*s.NumDevices()) {
		t.Fatalf("sim_move_opportunities_total = %d, want %d", got, cfg.Steps*s.NumDevices())
	}
	if got := reg.Counter("sim_selected_total").Value(); got <= 0 {
		t.Fatalf("sim_selected_total = %d, want > 0", got)
	}

	ph := s.PhaseSeconds()
	if ph.Select <= 0 || ph.Train <= 0 || ph.EdgeAgg <= 0 || ph.CloudSync <= 0 || ph.Eval <= 0 {
		t.Fatalf("phase accumulators not all positive: %+v", ph)
	}
	// Histories record the cumulative breakdown at eval time.
	last := h.Len() - 1
	if h.PhaseTrain[last] <= 0 {
		t.Fatalf("history phase column: train=%v", h.PhaseTrain[last])
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, phase := range []string{"selection", "local_train", "edge_agg", "cloud_sync", "eval"} {
		want := `sim_phase_seconds_count{phase="` + phase + `"}`
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition missing %s:\n%s", want, expo)
		}
	}
	hist := reg.Histogram("sim_phase_seconds", nil, "phase", "local_train")
	if hist.Count() != int64(cfg.Steps) {
		t.Fatalf("local_train span count %d, want %d", hist.Count(), cfg.Steps)
	}

	// Metrics must not change the simulation itself.
	f2 := newFixture(t, 0.5)
	s2 := New(smallConfig(), f2.factory(), f2.part, f2.test, f2.mob, &spyStrategy{})
	h2 := s2.Run()
	if len(h.GlobalAcc) != len(h2.GlobalAcc) {
		t.Fatalf("eval counts differ with metrics on: %d vs %d", len(h.GlobalAcc), len(h2.GlobalAcc))
	}
	for i := range h.GlobalAcc {
		if h.GlobalAcc[i] != h2.GlobalAcc[i] {
			t.Fatalf("accuracy diverged with metrics on at eval %d: %v vs %v", i, h.GlobalAcc[i], h2.GlobalAcc[i])
		}
	}
}
