package hfl

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"middle/internal/mobility"
	"middle/internal/obs"
	"middle/internal/tensor"
)

// TestTelemetryFullStack runs one small simulation with every telemetry
// consumer attached — registry, JSONL emitter and round trace — and
// checks each output, then re-runs bare and demands bit-identical
// results including the always-on telemetry History columns.
func TestTelemetryFullStack(t *testing.T) {
	reg := obs.NewRegistry()
	var jsonl bytes.Buffer
	tr := obs.NewTrace(0)
	cfg := smallConfig()
	cfg.Obs = reg
	cfg.Events = obs.NewEmitter(&jsonl)
	cfg.Trace = tr

	f := newFixture(t, 0.5)
	s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
	h := s.Run()
	selected := reg.Counter("sim_selected_total").Value()
	if selected == 0 {
		t.Fatal("no devices selected")
	}

	// Histograms: one selection-utility and one update-norm observation
	// per selected device-round.
	if got := reg.Histogram("hfl_selection_utility", UtilityBuckets()).Count(); got != selected {
		t.Fatalf("hfl_selection_utility count %d, want %d", got, selected)
	}
	if got := reg.Histogram("hfl_update_norm", NormBuckets()).Count(); got != selected {
		t.Fatalf("hfl_update_norm count %d, want %d", got, selected)
	}
	// Flow counters must sum to the observed cross-edge moves.
	moves := reg.Counter("sim_moves_total").Value()
	var flowSum int64
	for from := 0; from < s.NumEdges(); from++ {
		for to := 0; to < s.NumEdges(); to++ {
			flowSum += reg.Counter("hfl_mobility_flow_total",
				"from", strconv.Itoa(from), "to", strconv.Itoa(to)).Value()
		}
	}
	if flowSum != moves {
		t.Fatalf("mobility flow sum %d, want %d moves", flowSum, moves)
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hfl_selection_utility_bucket", "hfl_update_norm_bucket",
		`hfl_edge_divergence{edge="0"}`, "hfl_selection_fairness_jain",
		"hfl_participating_devices",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}

	// History telemetry columns: populated at every eval, with sane
	// ranges (utilities in [0,1], Jain index in (0,1], norms ≥ 0).
	for i := 0; i < h.Len(); i++ {
		if h.SelUtilMean[i] < 0 || h.SelUtilMean[i] > 1 || h.BlendUtilMean[i] < 0 || h.BlendUtilMean[i] > 1 {
			t.Fatalf("eval %d utility means out of range: sel=%v blend=%v", i, h.SelUtilMean[i], h.BlendUtilMean[i])
		}
		if h.UpdNormMean[i] < 0 || h.EdgeDivMean[i] < 0 || h.EdgeDivMax[i] < h.EdgeDivMean[i] {
			t.Fatalf("eval %d norms: upd=%v div mean=%v max=%v", i, h.UpdNormMean[i], h.EdgeDivMean[i], h.EdgeDivMax[i])
		}
		if h.FairnessJain[i] <= 0 || h.FairnessJain[i] > 1 {
			t.Fatalf("eval %d fairness %v outside (0,1]", i, h.FairnessJain[i])
		}
	}

	// JSONL: one "round" event per step, one "eval" per history point.
	rounds, evals := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var ev struct {
			Event       string    `json:"event"`
			Step        int       `json:"step"`
			SelUtilMean *float64  `json:"sel_util_mean"`
			EdgeDiv     []float64 `json:"edge_divergence"`
			Flow        [][]int64 `json:"mobility_flow"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("telemetry line %q: %v", line, err)
		}
		switch ev.Event {
		case "round":
			rounds++
			if ev.SelUtilMean == nil {
				t.Fatalf("round event missing sel_util_mean: %s", line)
			}
		case "eval":
			evals++
			if len(ev.EdgeDiv) != s.NumEdges() || len(ev.Flow) != s.NumEdges() {
				t.Fatalf("eval event dims: %s", line)
			}
		}
	}
	if rounds != cfg.Steps || evals != h.Len() {
		t.Fatalf("JSONL rounds=%d evals=%d, want %d/%d", rounds, evals, cfg.Steps, h.Len())
	}

	// Trace: a validated span tree with one monotonic round span per
	// step, each containing at least select/train/edge_agg children.
	events := tr.Events()
	if err := obs.ValidateTraceEvents(events); err != nil {
		t.Fatal(err)
	}
	lastTs := int64(-1)
	roundSpans := 0
	children := map[string]int{}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.Name == "round" {
			roundSpans++
			if e.Ts < lastTs {
				t.Fatalf("round spans not monotonic: %d after %d", e.Ts, lastTs)
			}
			lastTs = e.Ts
			continue
		}
		children[e.Name]++
	}
	if roundSpans != cfg.Steps {
		t.Fatalf("%d round spans, want %d", roundSpans, cfg.Steps)
	}
	for _, name := range []string{"select", "train", "edge_agg"} {
		if children[name] != cfg.Steps {
			t.Fatalf("%d %q spans, want %d", children[name], name, cfg.Steps)
		}
	}
	if children["cloud_sync"] != cfg.Steps/cfg.CloudInterval {
		t.Fatalf("%d cloud_sync spans, want %d", children["cloud_sync"], cfg.Steps/cfg.CloudInterval)
	}

	// The fully instrumented run must be bit-identical to a bare one,
	// including the always-on telemetry columns.
	f2 := newFixture(t, 0.5)
	s2 := New(smallConfig(), f2.factory(), f2.part, f2.test, f2.mob, &spyStrategy{})
	h2 := s2.Run()
	if h.Len() != h2.Len() {
		t.Fatalf("eval counts differ: %d vs %d", h.Len(), h2.Len())
	}
	for i := 0; i < h.Len(); i++ {
		same := h.GlobalAcc[i] == h2.GlobalAcc[i] &&
			h.SelUtilMean[i] == h2.SelUtilMean[i] &&
			h.UpdNormMean[i] == h2.UpdNormMean[i] &&
			h.BlendUtilMean[i] == h2.BlendUtilMean[i] &&
			h.EdgeDivMean[i] == h2.EdgeDivMean[i] &&
			h.EdgeDivMax[i] == h2.EdgeDivMax[i] &&
			h.FairnessJain[i] == h2.FairnessJain[i]
		if !same {
			t.Fatalf("instrumented run diverged at eval %d", i)
		}
	}
}

// TestPerEdgeSeriesBounded pins the one bound on per-edge series: a
// Sim registers hfl_edge_divergence and the mobility flow matrix while
// its edges number at most maxPerEdgeSeries, and neither family past it.
func TestPerEdgeSeriesBounded(t *testing.T) {
	f := newFixture(t, 0)
	for _, edges := range []int{2, maxPerEdgeSeries + 1} {
		reg := obs.NewRegistry()
		cfg := smallConfig()
		cfg.Obs = reg
		New(cfg, f.factory(), f.part, f.test, mobility.NewStatic(edges, f.part.NumDevices()), &spyStrategy{})
		families := map[string]bool{}
		for _, sv := range reg.Collect() {
			families[sv.Name] = true
			families[sv.Family] = true
		}
		want := edges <= maxPerEdgeSeries
		if families[`hfl_edge_divergence{edge="0"}`] != want || families["hfl_mobility_flow_total"] != want {
			t.Errorf("%d edges: divergence %v, flow %v; want both %v", edges,
				families[`hfl_edge_divergence{edge="0"}`], families["hfl_mobility_flow_total"], want)
		}
	}
}

// TestTelemetryDisabledAllocFree pins the disabled-mode contract: with
// no registry/emitter/trace configured, the telemetry recording calls
// StepOnce makes are allocation-free.
func TestTelemetryDisabledAllocFree(t *testing.T) {
	tel := newTelemetry(nil, 3, 8)
	flow, pairs := make([]int32, 9), []int{2}
	if a := testing.AllocsPerRun(200, func() {
		tel.beginRound()
		tel.recordSelection(2, 0.5, 1.25)
		tel.recordBlend(0.25)
		flow[2] = 1
		tel.recordFlow(flow, pairs)
		_ = tel.fairnessJain()
		_ = tel.selUtilMean()
	}); a != 0 {
		t.Fatalf("disabled telemetry recording allocates %.1f/op", a)
	}

	var s Sim // zero cfg: nil trace
	if a := testing.AllocsPerRun(200, func() {
		s.tracePhase("select", 7, s.cfg.Trace.Now(), s.cfg.Trace.Now())
	}); a != 0 {
		t.Fatalf("disabled tracePhase allocates %.1f/op", a)
	}
}

// Jain's index must be 1 for uniform participation, 1/n for a single
// dominant device, 0 before anyone trains, and, read from running sums,
// bit-equal to a scan over the per-device counts.
func TestFairnessJain(t *testing.T) {
	tel := newTelemetry(nil, 2, 4)
	if got := tel.fairnessJain(); got != 0 {
		t.Fatalf("empty fairness %v, want 0", got)
	}
	for m := 0; m < 4; m++ {
		tel.recordSelection(m, 0.5, 1)
	}
	if got := tel.fairnessJain(); got != 1 {
		t.Fatalf("uniform fairness %v, want 1", got)
	}
	tel2 := newTelemetry(nil, 2, 4)
	for i := 0; i < 10; i++ {
		tel2.recordSelection(0, 0.5, 1)
	}
	if got := tel2.fairnessJain(); got != 0.25 {
		t.Fatalf("dominant-device fairness %v, want 0.25", got)
	}

	// The running sums give the bits of a full scan that sums in float64.
	const devices, selections = 1000, 10_000
	tel3 := newTelemetry(nil, 2, devices)
	rng := tensor.NewRNG(11)
	for i := 0; i < selections; i++ {
		// Skewed toward low ids, so the counts are far from uniform.
		tel3.recordSelection(rng.Intn(1+rng.Intn(devices)), 0.5, 1)
	}
	var sum, sumSq float64
	for _, c := range tel3.trainCounts {
		x := float64(c)
		sum += x
		sumSq += x * x
	}
	scan := sum * sum / (float64(devices) * sumSq)
	if got := tel3.fairnessJain(); math.Float64bits(got) != math.Float64bits(scan) || sum != selections {
		t.Fatalf("%d selections over %d devices: fairness %v, a full scan over %v trainings gives %v", selections, devices, got, sum, scan)
	}
}
