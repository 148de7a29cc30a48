package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"middle/internal/obs"
)

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, and checks that each emits exactly the catalogue's metrics,
// finite, with a well-formed contract line and span tree.
func TestSmokeAllWorkloads(t *testing.T) {
	const window = 100 * time.Millisecond
	for _, full := range workloads {
		w := full.toy()
		t.Run(w.name, func(t *testing.T) {
			d := e2eDetail(w, 1, window, measure(w, 1, window, nil, true))
			if !d.Correct || d.Failed != 0 || d.Attempted < w.fixedRounds {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d failures=%v", d.Correct, d.Attempted, d.Failed, d.Failures)
			}
			checkContract(t, d, endToEnd)
			for _, m := range endToEnd {
				if d.Metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, d.Metrics[m.Name])
				}
			}

			td, spans := traceOnce(w, 1, 2*window)
			if !td.Correct {
				t.Fatalf("traced run failed: %v", td.Failures)
			}
			checkContract(t, td, perLayer)
			if cov := td.Metrics["obs.span_coverage_ratio"]; cov < 0.9 {
				t.Errorf("spans cover %.3f of the traced window, want ≥ 0.9", cov)
			}
			var buf bytes.Buffer
			if err := writeChromeTrace(&buf, "smoke", spans); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadTraceJSON(&buf)
			if err != nil || len(events) != len(spans) || len(spans) == 0 {
				t.Fatalf("trace round trip: %d spans, %d events, err %v", len(spans), len(events), err)
			}
			if err := obs.ValidateTraceEvents(events); err != nil {
				t.Errorf("span tree: %v", err)
			}
		})
	}
}

// checkContract parses the line the driver reads and compares its
// metric set with the catalogue.
func checkContract(t *testing.T, d *runDetail, catalogue []metric) {
	t.Helper()
	line, err := d.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line %s: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Fatalf("contract line lacks a key or an attempt: %s", line)
	}
	if len(got.Metrics) != len(catalogue) {
		t.Errorf("contract line has %d metrics, catalogue %d", len(got.Metrics), len(catalogue))
	}
	for _, m := range catalogue {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("metric %s missing or with unit %q, want %q", m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json equal to the
// catalogue and inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's charset or length", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		// final_acc is read from the evaluation that ends the fixed job.
		if w.fixedRounds%w.evalEvery != 0 {
			t.Errorf("workload %s: job of %d rounds does not end on an evaluation (every %d)", w.name, w.fixedRounds, w.evalEvery)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("contract sizes: %d workloads, %d end-to-end, %d per-layer, %d bytes", n, len(endToEnd), len(perLayer), len(raw))
	}
	// The driver makes 4 + 22 × workloads runs inside 3420 s.
	if budget := 3420.0 / float64(4+22*len(workloads)); runSeconds >= budget {
		t.Errorf("run_seconds %d leaves no room in the %.1f s a run may take", runSeconds, budget)
	}
}

func TestPercentilePicksMeasuredSamples(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]float64{7}, 90) != 7 {
		t.Error("percentile of an empty or single sample")
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(values, n=4), the driver's spread rule.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{9, 9, 9, 12, 12, 12, 12, 12, 12, 12}, 9, 12},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{9, 9, 9, 12, 12, 12, 12, 12, 12, 12}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0.25", got)
	}
}

func TestTargetCrossingIsInterpolated(t *testing.T) {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	w := &workload{target: 0.9, fixedRounds: 30}
	m := &measured{}
	m.evaluated(w, 10, at(2), 0, 0.5)
	m.evaluated(w, 20, at(4), 0, 0.8)
	if m.reached {
		t.Fatal("target reached at 0.8")
	}
	m.evaluated(w, 30, at(6), 0, 1.0) // 0.8 → 1.0 passes 0.9 halfway
	m.evaluated(w, 40, at(8), 0, 0.7) // a later dip moves nothing
	if !m.reached || m.ttaRounds != 25 || m.tta != at(5) {
		t.Errorf("crossing at round %v, %v; want round 25, 5s", m.ttaRounds, m.tta)
	}
	if m.jobAcc != 1.0 || m.evals != 4 || len(m.curve) != 4 {
		t.Errorf("accuracy after the job %v, %d evaluations, %d curve points", m.jobAcc, m.evals, len(m.curve))
	}
	// mean_acc is over the job's three evaluations, not the one after it.
	if m.jobEvals != 3 || math.Abs(m.jobAccSum-2.3) > 1e-12 {
		t.Errorf("job accuracies sum to %v over %d evaluations, want 2.3 over 3", m.jobAccSum, m.jobEvals)
	}
	// Nothing to interpolate from when the first evaluation is already there.
	m = &measured{}
	m.evaluated(w, 10, at(2), 0, 0.95)
	if !m.reached || m.ttaRounds != 10 || m.tta != at(2) {
		t.Errorf("first-evaluation crossing at round %v, %v; want round 10, 2s", m.ttaRounds, m.tta)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "round", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "select", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "select", Start: at(20), End: at(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "select", Start: at(90), End: at(120)}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "inner", Start: at(25), End: at(35)},   // a grandchild changes nothing above
	}
	self := selfTimes(spans)
	want := []time.Duration{at(50), at(20), at(20), at(30), at(10)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	by := totalsByName(spans)
	if s := by["select"]; s.count != 3 || s.total != at(80) || s.self != at(70) {
		t.Errorf("select totals = %+v", s)
	}
}

func TestOperationCounts(t *testing.T) {
	// Edge 0 holds 5 devices, edge 1 holds 1, edge 2 none: K=2 selects 2+1+0.
	if got := selectedTrainings([]int{0, 0, 0, 0, 0, 1}, 3, 2); got != 3 {
		t.Errorf("selectedTrainings = %d, want 3", got)
	}
	if got := countMoves([]int{0, 1, 2, 0}, []int{0, 2, 2, 1}); got != 2 {
		t.Errorf("countMoves = %d, want 2", got)
	}
	if operationsFailed(40, 0) != 0 || operationsFailed(40, 2) != 40 {
		t.Error("operationsFailed: a clean run fails nothing, a failed run fails every round")
	}
	w := workloads[0].toy()
	m := &measured{rounds: make([]time.Duration, 7), wall: time.Second, finite: true, reached: true, selected: 14, completed: 9}
	m.fail("Cluster.Wait: boom")
	d := e2eDetail(w, 1, time.Second, m)
	if d.Correct || d.Attempted != 7 || d.Failed != 7 || d.TrainingsSelected != 14 || d.TrainingsCompleted != 9 {
		t.Errorf("failed run reported as %+v", d)
	}
	// A run that failed before its window opened still reports: every
	// metric finite, its one attempted operation failed.
	early := &measured{}
	early.fail("StartCluster: boom")
	d = e2eDetail(w, 1, time.Second, early)
	if _, err := d.contractLine(); err != nil || d.Correct || d.Attempted != 1 || d.Failed != 1 {
		t.Errorf("run without a window: correct=%v attempted=%d failed=%d, contract line: %v", d.Correct, d.Attempted, d.Failed, err)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lat := metric{Name: "round_ms_p50", Unit: "ms", Better: lower, Bound: 0.10}
	rate := metric{Name: "rounds_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	sum := func(values ...float64) *summary {
		q1, q3 := quartiles(values)
		return &summary{Median: median(values), Q1: q1, Q3: q3, Runs: len(values), Values: values}
	}
	for _, c := range []struct {
		name         string
		m            metric
		base, change *summary
		want         string
	}{
		{"within bound", lat, sum(100, 101, 99, 100), sum(105, 106, 104, 105), verdictOK},
		{"slower than bound", lat, sum(100, 101, 99, 100), sum(115, 116, 114, 115), verdictWorse},
		{"rate dropped", rate, sum(30, 30.5, 29.5, 30), sum(25, 25.5, 24.5, 25), verdictWorse},
		{"rate rose", rate, sum(30, 30.5, 29.5, 30), sum(40, 40.5, 39.5, 40), verdictOK},
		{"noisy base", lat, sum(80, 100, 120, 140), sum(100, 101, 99, 100), verdictUnresolved},
		{"noisy but every run better", lat, sum(80, 100, 120, 140), sum(50, 51, 49, 50), verdictOK},
	} {
		if _, got := judge(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
