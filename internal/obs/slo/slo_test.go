package slo

import (
	"strings"
	"testing"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/tsdb"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`round_p99: p99(sim_round_seconds,60s) < 5; quorum: delta(fednet_quorum_misses_total,1m) <= 0 for 10s
# a comment
rss: last(process_peak_rss_bytes) < 2GiB`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	r0 := rules[0]
	if r0.Name != "round_p99" || r0.Reducer != "p99" || r0.Series != "sim_round_seconds" ||
		r0.Window != time.Minute || r0.Op != "<" || r0.Threshold != 5 {
		t.Fatalf("rule 0 = %+v", r0)
	}
	if rules[1].For != 10*time.Second {
		t.Fatalf("rule 1 for = %v", rules[1].For)
	}
	if rules[2].Threshold != float64(int64(2)<<30) {
		t.Fatalf("GiB threshold = %g", rules[2].Threshold)
	}
}

func TestParseRulesLabeledSeries(t *testing.T) {
	rules, err := ParseRules(`cloud: p99(fednet_rpc_seconds{op="cloud_round"},60s) < 30`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Series != `fednet_rpc_seconds{op="cloud_round"}` {
		t.Fatalf("series = %q", rules[0].Series)
	}
}

func TestParseRulesErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"noparens: last series < 5",
		"badop: last(x) ~ 5",
		"badwin: last(x,notadur) < 5",
		"badthr: last(x) < abc",
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) did not error", bad)
		}
	}
}

func TestDefaultRulesParse(t *testing.T) {
	rules, err := ParseRules("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != len(DefaultRules()) || len(rules) < 5 {
		t.Fatalf("default rules = %d", len(rules))
	}
}

// buildStore scrapes a registry n times at 1s spacing with the given
// per-scrape mutation and returns the store.
func buildStore(t *testing.T, r *obs.Registry, n int, between func(i int)) *tsdb.Store {
	t.Helper()
	s, err := tsdb.New(tsdb.Config{Registry: r, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if between != nil {
			between(i)
		}
		s.ScrapeOnce()
		// Real wall-clock spacing is irrelevant for windowless rules.
	}
	return s
}

func TestEngineBreachAndResolve(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("depth")
	s, err := tsdb.New(tsdb.Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	em := obs.NewEmitter(&sb)
	rules, err := ParseRules("depth_ok: last(depth) < 10")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Store: s, Rules: rules, Events: em})
	if err != nil {
		t.Fatal(err)
	}

	g.Set(3)
	s.ScrapeOnce()
	e.EvalNow()
	if alerts := e.Alerts(); alerts[0].State != "ok" {
		t.Fatalf("healthy state = %+v", alerts[0])
	}

	g.Set(50)
	s.ScrapeOnce()
	e.EvalNow()
	if alerts := e.Alerts(); alerts[0].State != "firing" || alerts[0].Detail == "" {
		t.Fatalf("breach state = %+v", alerts[0])
	}
	if !strings.Contains(sb.String(), `"event":"slo_breach"`) {
		t.Fatalf("no breach event: %s", sb.String())
	}

	g.Set(3)
	s.ScrapeOnce()
	e.EvalNow()
	if alerts := e.Alerts(); alerts[0].State != "ok" {
		t.Fatalf("recovered state = %+v", alerts[0])
	}
	if !strings.Contains(sb.String(), `"event":"slo_resolve"`) {
		t.Fatalf("no resolve event: %s", sb.String())
	}
	// The exit gate remembers the breach across the recovery.
	if br := e.Breached(); len(br) != 1 || br[0] != "depth_ok" {
		t.Fatalf("Breached = %v", br)
	}
}

func TestEnginePendingRulesNeverFire(t *testing.T) {
	r := obs.NewRegistry()
	s := buildStore(t, r, 3, nil)
	rules, err := ParseRules("ghost: last(series_that_never_exists) < 1; windowed: avg(also_missing,1h) > 5")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Store: s, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	e.EvalNow()
	for _, a := range e.Alerts() {
		if a.State != "pending" {
			t.Fatalf("rule over missing series = %+v, want pending", a)
		}
	}
	if len(e.Breached()) != 0 {
		t.Fatal("pending rules must not breach")
	}
}

func TestEngineForDurationDelaysFiring(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("depth")
	s, err := tsdb.New(tsdb.Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseRules("depth_ok: last(depth) < 10 for 1h")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Store: s, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	g.Set(50)
	s.ScrapeOnce()
	e.EvalNow()
	e.EvalNow()
	// Failing, but nowhere near the 1h sustain requirement.
	if a := e.Alerts()[0]; a.State != "pending" {
		t.Fatalf("state = %+v, want pending under for-duration", a)
	}
	if len(e.Breached()) != 0 {
		t.Fatal("for-duration rule breached prematurely")
	}
}

func TestEngineGlobTakesWorstMatch(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("rej_total", "reason", "a").Add(2)
	r.Counter("rej_total", "reason", "b").Add(9)
	s := buildStore(t, r, 1, nil)
	rules, err := ParseRules("rejects: last(rej_total*) <= 5")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Store: s, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	e.EvalNow()
	a := e.Alerts()[0]
	if a.State != "firing" || a.Value != 9 {
		t.Fatalf("glob rule = %+v, want firing on the worst match (9)", a)
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	e.Start()
	e.Close()
	e.EvalNow()
	if e.Alerts() != nil || e.Breached() != nil {
		t.Fatal("nil engine leaked state")
	}
}
