package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"middle/internal/obs/flight"
)

// TestTSDBDefaultsOnForItsReaders pins the one copy of the rule "no
// -tsdb-interval means 1 s when something reads the store": the
// listener's /api/query and /dashboard, the SLO engine, the dump.
func TestTSDBDefaultsOnForItsReaders(t *testing.T) {
	if m, err := StartMetricsConfig(MetricsConfig{}); m != nil || err != nil {
		t.Fatalf("zero config started %v (err %v), want the nil bundle", m, err)
	}
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		cfg   MetricsConfig
		store bool
	}{
		"listener":      {MetricsConfig{Addr: "127.0.0.1:0"}, true},
		"slo":           {MetricsConfig{SLORules: "default"}, true},
		"dump":          {MetricsConfig{TSDBOut: filepath.Join(dir, "t.json")}, true},
		"interval":      {MetricsConfig{TSDBInterval: time.Hour}, true},
		"flight only":   {MetricsConfig{FlightDir: filepath.Join(dir, "fd")}, false},
		"profiler only": {MetricsConfig{ProfileInterval: time.Hour}, false},
	} {
		m, err := StartMetricsConfig(tc.cfg)
		if err != nil || m == nil {
			t.Fatalf("%s: %v, %v", name, m, err)
		}
		if (m.store != nil) != tc.store {
			t.Errorf("%s: tsdb store on = %v, want %v", name, m.store != nil, tc.store)
		}
		m.Close()
	}
}

func newCLI(t *testing.T, lines *[]string, args ...string) *CLI {
	t.Helper()
	c := &CLI{Name: "prog", Logf: func(format string, a ...any) { *lines = append(*lines, fmt.Sprintf(format, a...)) }}
	fs := flag.NewFlagSet("prog", flag.ContinueOnError)
	c.RegisterFlags(fs)
	fs.StringVar(&c.Metrics.TSDBOut, "tsdb-out", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCLIRunLeavesItsOutputs drives the bootstrap the two binaries share:
// Start, a span, the deferred stop, Finish — and finds the trace, the
// summary and the tsdb dump where the flags said, announced in order.
func TestCLIRunLeavesItsOutputs(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	c := newCLI(t, &lines, "-trace-out", filepath.Join(dir, "trace.json"), "-results", filepath.Join(dir, "res"),
		"-tsdb-out", filepath.Join(dir, "tsdb.json"), "-task", "emnist")
	stop := c.Start("experiment", "fig6")
	if c.M == nil || c.Trace == nil || c.M.store == nil {
		t.Fatalf("Start left M=%v Trace=%v", c.M, c.Trace)
	}
	if setup := c.Attach(&TaskSetup{}); setup.Obs != c.M.Registry() || setup.Trace != c.Trace {
		t.Fatalf("Attach wired %+v", setup)
	}
	c.Trace.Complete("round", "sim", 1, 1, c.Trace.Now(), time.Millisecond, "r1", "", nil)
	if breached := c.Finish(map[string]any{"seed": 1}); len(breached) != 0 {
		t.Fatalf("breached %v with no rules", breached)
	}
	stop()
	got := strings.Join(lines, "\n")
	summaries, _ := filepath.Glob(filepath.Join(dir, "res", "prog-fig6-*.json"))
	if len(summaries) != 1 {
		t.Fatalf("summaries %v, want one named after the run", summaries)
	}
	want := "wrote tsdb dump " + filepath.Join(dir, "tsdb.json") + "\nwrote summary " + summaries[0] +
		"\nwrote trace " + filepath.Join(dir, "trace.json") + " (1 spans)"
	if got != want {
		t.Fatalf("progress lines\n got %q\nwant %q", got, want)
	}
	for _, f := range []string{"trace.json", "tsdb.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}

	// Nothing asked for: no bundle, no trace, and Finish writes nothing.
	lines = nil
	c = newCLI(t, &lines)
	stop = c.Start("role", "edge")
	if c.M != nil || c.Trace != nil || c.Events != nil {
		t.Fatalf("bare Start left M=%v Trace=%v Events=%v", c.M, c.Trace, c.Events)
	}
	c.Finish(nil)
	stop()
	if len(lines) != 0 {
		t.Fatalf("bare run printed %q", lines)
	}
}

// TestCLIStopLeavesABundleBehindAPanic: the function Start returns is the
// panic hook — it must capture while state is live, then let the panic
// through.
func TestCLIStopLeavesABundleBehindAPanic(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	c := newCLI(t, &lines, "-flight-dir", dir)
	func() {
		defer func() {
			if v := recover(); v != "boom" {
				t.Errorf("recovered %v, want the original panic", v)
			}
		}()
		defer c.Start("role", "cloud")()
		panic("boom")
	}()
	bundles, err := flight.Bundles(dir)
	if err != nil || len(bundles) != 1 || !strings.Contains(bundles[0], "panic") {
		t.Fatalf("bundles %v (err %v), want one panic bundle", bundles, err)
	}
}
