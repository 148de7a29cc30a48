package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"middle"
	"middle/internal/experiments"
	"middle/internal/obs"
	"middle/internal/robust"
)

func TestParseStrategiesDefault(t *testing.T) {
	got, err := parseStrategies("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Name() != "MIDDLE" {
		t.Fatalf("default strategies %v", got)
	}
}

func TestParseStrategiesExplicit(t *testing.T) {
	got, err := parseStrategies("OORT, Greedy")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name() != "OORT" || got[1].Name() != "Greedy" {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseStrategies("OORT,nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestTranspose(t *testing.T) {
	in := [][]float64{{1, 2, 3}, {4, 5, 6}}
	out := transpose(in)
	if len(out) != 3 || len(out[0]) != 2 {
		t.Fatalf("shape %dx%d", len(out), len(out[0]))
	}
	if out[2][1] != 6 || out[0][1] != 4 {
		t.Fatalf("content %v", out)
	}
	if transpose(nil) != nil {
		t.Fatal("transpose(nil)")
	}
}

func TestSmoothAll(t *testing.T) {
	in := []middle.Series{{Name: "a", X: []int{1, 2, 3}, Y: []float64{0, 3, 0}}}
	out := smoothAll(in, 3)
	if out[0].Y[1] != 1 {
		t.Fatalf("smoothed %v", out[0].Y)
	}
	// Window 1 returns input unchanged (same backing arrays acceptable).
	same := smoothAll(in, 1)
	if &same[0] != &in[0] {
		t.Fatal("window 1 should be a no-op")
	}
}

// TestTraceExportTwoEdgeThreeRound is the end-to-end acceptance check
// for -trace-out: a 2-edge, 3-round run's exported Chrome trace must
// parse as valid JSON and hold monotonic, correctly parented spans.
func TestTraceExportTwoEdgeThreeRound(t *testing.T) {
	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, 1)
	setup.Edges, setup.Devices, setup.K = 2, 8, 2
	setup.Trace = obs.NewTrace(0)
	cfg := setup.Config(1, 3)
	cfg.EvalEvery = 1
	part := setup.Partition(1)
	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, 0.5, 12)
	strat, err := middle.StrategyByName("MIDDLE")
	if err != nil {
		t.Fatal(err)
	}
	sim := middle.NewSimulation(cfg, setup.Factory, part, setup.Test, mob, strat)
	sim.Run()

	// Export exactly what -trace-out writes, then re-parse it.
	var buf bytes.Buffer
	if err := setup.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if err := obs.ValidateTraceEvents(events); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	var rounds []obs.TraceEvent
	children := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.Name == "round" {
			rounds = append(rounds, e)
		} else if parent, _ := e.Args["parent"].(string); parent != "" {
			children++
		}
	}
	if len(rounds) != 3 {
		t.Fatalf("round spans = %d, want 3", len(rounds))
	}
	var lastEnd int64 = -1
	for i, e := range rounds {
		if span, _ := e.Args["span"].(string); span != fmt.Sprintf("r%d", i+1) {
			t.Fatalf("round[%d] span %q", i, span)
		}
		if e.Ts < lastEnd {
			t.Fatalf("round[%d] starts at %d before previous ended at %d", i, e.Ts, lastEnd)
		}
		lastEnd = e.Ts + e.Dur
	}
	// Every round has at least select/train/edge_agg phase children.
	if children < 3*3 {
		t.Fatalf("phase spans = %d, want at least 9", children)
	}
}

// TestFlagSurface pins every flag's name and default against the list
// captured before the flags were bound into the configs they fill
// (testdata/flags.golden: name, tab, default). Help text is free.
func TestFlagSurface(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("middlesim", flag.ContinueOnError)
	registerFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s\t%s\n", f.Name, f.DefValue) })
	if got.String() != string(golden) {
		t.Fatalf("flag surface moved\n--- got\n%s--- want\n%s", got.String(), golden)
	}
}

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("middlesim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	return o, fs.Parse(args)
}

// TestFlagsLandInSimConfig: the simulator flags arrive, through overlay,
// in the hfl.Config that -exp run hands to the engine, and nothing else
// of the setup's config moves.
func TestFlagsLandInSimConfig(t *testing.T) {
	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, 1)
	base := setup.Config(1, 7)
	for name, tc := range map[string]struct {
		args []string
		want func(c *middle.Config)
	}{
		"defaults": {nil, func(*middle.Config) {}},
		"norm bound": {[]string{"-norm-bound", "2"},
			func(c *middle.Config) { c.Validate = robust.ValidatorConfig{Enabled: true, NormBound: 2} }},
		"norm bound off": {[]string{"-norm-bound", "2", "-norm-bound", "0"}, func(*middle.Config) {}},
		"aggregation": {[]string{"-aggregator", "trimmed-mean", "-sel-norm-cap", "5"},
			func(c *middle.Config) { c.Aggregator, c.SelectionNormCap = robust.AggTrimmedMean, 5 }},
		"adversary": {[]string{"-adversary-fraction", "0.2", "-adversary-scale", "3", "-adversary-seed", "9"},
			func(c *middle.Config) { c.Adversary = robust.Adversary{Fraction: 0.2, Scale: 3, Seed: 9} }},
	} {
		o, err := parse(t, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, want := base, base
		o.overlay(&got)
		tc.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: config\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestFlagsLandInScaleAndShared(t *testing.T) {
	o, err := parse(t, "-exp", "scale", "-devices", "20000", "-edges", "20", "-k", "4", "-tc", "5",
		"-resident-cap", "99", "-mux", "8", "-membership", "-live-migration", "-seed", "5", "-task", "emnist",
		"-tsdb-out", "t.json", "-tsdb-interval", "50ms", "-flight-dir", "fd", "-profile-interval", "2s",
		"-results", "res", "-trace-out", "tr.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := (scaleOpts{devices: 20000, edges: 20, k: 4, tc: 5, residentCap: 99, mux: 8, membership: true, liveMigration: true}); o.scale != want {
		t.Errorf("scale flags\n got %+v\nwant %+v", o.scale, want)
	}
	wantMetrics := experiments.MetricsConfig{TSDBOut: "t.json", TSDBInterval: 50 * time.Millisecond,
		FlightDir: "fd", ProfileInterval: 2 * time.Second}
	if !reflect.DeepEqual(o.Metrics, wantMetrics) || o.Seed != 5 || o.Task != "emnist" || o.Results != "res" || o.TraceOut != "tr.json" {
		t.Errorf("shared flags: %+v seed %d task %q results %q trace %q", o.Metrics, o.Seed, o.Task, o.Results, o.TraceOut)
	}
}

func TestBadNamesFailAtParse(t *testing.T) {
	for _, args := range [][]string{{"-aggregator", "bogus"}, {"-norm-bound", "x"}} {
		if _, err := parse(t, args...); err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: parse error %v, want one naming the value", args, err)
		}
	}
}
