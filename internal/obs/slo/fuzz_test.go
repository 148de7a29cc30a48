package slo

import (
	"testing"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/tsdb"
)

// FuzzParseRules throws arbitrary rule lists at the rule grammar. The
// seeds are the lists the tests in this package parse, good and bad.
//
// Properties: the parser never panics, and what it accepts is what its
// consumer, the engine, takes as given: at least one rule, each with a
// name, a reducer, a series and one of the six comparisons, non-negative
// durations and a finite threshold — and an engine built from them
// evaluates every rule into one of its three states.
func FuzzParseRules(f *testing.F) {
	for _, s := range []string{
		"round_p99: p99(sim_round_seconds,60s) < 5; quorum: delta(fednet_quorum_misses_total,1m) <= 0 for 10s\n# a comment\nrss: last(process_peak_rss_bytes) < 2GiB",
		`cloud: p99(fednet_rpc_seconds{op="cloud_round"},60s) < 30`,
		"", "noparens: last series < 5", "badop: last(x) ~ 5", "badwin: last(x,notadur) < 5", "badthr: last(x) < abc",
		"default",
		"depth_ok: last(depth) < 10",
		"ghost: last(series_that_never_exists) < 1; windowed: avg(also_missing,1h) > 5",
		"depth_ok: last(depth) < 10 for 1h",
		"rejects: last(rej_total*) <= 5",
	} {
		f.Add(s)
	}
	// One store for every input, holding a gauge, a counter and a
	// histogram for the rules to reduce.
	reg := obs.NewRegistry()
	store, err := tsdb.New(tsdb.Config{Registry: reg, Interval: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		reg.Gauge("depth").Set(float64(i))
		reg.Counter("rej_total", "reason", "nonfinite").Add(int64(i))
		reg.Span("sim_round_seconds").Observe(time.Duration(i) * time.Millisecond)
		store.ScrapeOnce()
	}
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := ParseRules(s)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("%q: no rules and no error", s)
		}
		for _, r := range rules {
			switch {
			case r.Name == "" || r.Reducer == "" || r.Series == "":
				t.Fatalf("%q: rule %+v lacks a part", s, r)
			case r.Op != "<" && r.Op != "<=" && r.Op != ">" && r.Op != ">=" && r.Op != "==" && r.Op != "!=":
				t.Fatalf("%q: rule %+v compares with %q", s, r, r.Op)
			case r.Window < 0 || r.For < 0:
				t.Fatalf("%q: rule %+v has a negative duration", s, r)
			case r.Threshold != r.Threshold || r.Threshold > maxFloat || r.Threshold < -maxFloat:
				t.Fatalf("%q: rule %+v has threshold %v", s, r, r.Threshold)
			}
		}
		e, err := New(Config{Store: store, Rules: rules})
		if err != nil {
			t.Fatalf("%q: engine refused parsed rules: %v", s, err)
		}
		e.EvalNow()
		alerts := e.Alerts()
		if len(alerts) != len(rules) {
			t.Fatalf("%q: %d alerts for %d rules", s, len(alerts), len(rules))
		}
		for _, a := range alerts {
			if a.State != "ok" && a.State != "pending" && a.State != "firing" {
				t.Fatalf("%q: rule %s in state %q", s, a.Name, a.State)
			}
		}
	})
}

const maxFloat = 1.7976931348623157e308
