package flight

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/slo"
	"middle/internal/obs/tsdb"
)

// Everything in this package must be inert when nil or disabled: hot
// paths call it unconditionally.
func TestNilValuesInert(t *testing.T) {
	var r *Recorder
	if path, err := r.Capture("x"); path != "" || err != nil {
		t.Fatalf("nil Capture = %q, %v", path, err)
	}
	r.SetProfiler(nil)
	r.NotifySignals()()

	var ring *EventRing
	if n, err := ring.Write([]byte("ev\n")); n != 3 || err != nil {
		t.Fatalf("nil ring Write = %d, %v", n, err)
	}
	if got := ring.Snapshot(); got != nil {
		t.Fatalf("nil ring Snapshot = %v", got)
	}
	if w := ring.Tee(nil); w != nil {
		t.Fatalf("nil ring Tee(nil) = %v, want nil", w)
	}

	var p *Profiler
	p.Close()
	if b := p.Snapshot(); b != nil {
		t.Fatalf("nil profiler Snapshot = %v", b)
	}
}

// With no profiler active, BeginPhase/End must not allocate — the
// instrumentation sits on training hot paths.
func TestDisabledPhaseZeroAllocs(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("a profiler is active; disabled-path test invalid")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tok := BeginPhase("local_train")
		tok.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled BeginPhase/End allocates %.1f times per op, want 0", allocs)
	}
}

func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(3)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(r, "line%d\n", i)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d lines, want 3", len(snap))
	}
	for i, want := range []string{"line2\n", "line3\n", "line4\n"} {
		if string(snap[i]) != want {
			t.Fatalf("snap[%d] = %q, want %q", i, snap[i], want)
		}
	}
}

func TestEventRingTee(t *testing.T) {
	r := NewEventRing(8)
	var sink bytes.Buffer
	w := r.Tee(&sink)
	fmt.Fprintf(w, "both\n")
	if sink.String() != "both\n" {
		t.Fatalf("tee sink = %q", sink.String())
	}
	if snap := r.Snapshot(); len(snap) != 1 || string(snap[0]) != "both\n" {
		t.Fatalf("tee ring = %q", snap)
	}
	if w := r.Tee(nil); w != any(r) {
		t.Fatalf("Tee(nil) should return the ring itself")
	}
	var nilRing *EventRing
	if w := nilRing.Tee(&sink); w != any(&sink) {
		t.Fatalf("nil ring Tee(w) should return w")
	}
}

func TestEventRingConcurrentWrites(t *testing.T) {
	r := NewEventRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fmt.Fprintf(r, "g%d-%d\n", g, i)
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("full ring snapshot holds %d lines, want 64", got)
	}
}

// newTestRecorder wires a recorder to a live registry/tsdb/slo/trace so
// captures exercise every bundle file.
func newTestRecorder(t *testing.T, dir string, max int) (*Recorder, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("test_ticks_total").Inc()
	store, err := tsdb.New(tsdb.Config{Registry: reg, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := slo.New(slo.Config{
		Store: store,
		Rules: mustRules(t, `ticks_low: last(test_ticks_total) > 100`),
	})
	if err != nil {
		t.Fatal(err)
	}
	store.ScrapeOnce()
	engine.EvalNow()
	ring := NewEventRing(8)
	fmt.Fprintf(ring, `{"event":"test"}`+"\n")
	rec, err := NewRecorder(RecorderConfig{
		Dir:      dir,
		Manifest: obs.Manifest{Name: "flight-test"},
		Registry: reg,
		Store:    store,
		Engine:   engine,
		Trace:    obs.NewTrace(64),
		Events:   ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.maxBundles = max
	return rec, reg
}

func mustRules(t *testing.T, s string) []slo.Rule {
	t.Helper()
	rules, err := slo.ParseRules(s)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestCaptureBundleComplete(t *testing.T) {
	dir := t.TempDir()
	rec, reg := newTestRecorder(t, dir, 8)

	path, err := rec.Capture("slo_breach ticks_low")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(path), "slo_breach_ticks_low") {
		t.Fatalf("bundle name %q lacks sanitized reason", path)
	}
	for _, f := range []string{
		"goroutines.txt", "heap.pprof", "cpu.pprof", "tsdb.json",
		"events.jsonl", "trace.json", "slo.json", "metrics.json", "manifest.json",
	} {
		if fi, err := os.Stat(filepath.Join(path, f)); err != nil {
			t.Errorf("bundle misses %s: %v", f, err)
		} else if fi.Size() == 0 && f != "trace.json" {
			t.Errorf("bundle file %s is empty", f)
		}
	}
	// Atomicity: the .partial staging dir must be gone.
	if _, err := os.Stat(path + ".partial"); !os.IsNotExist(err) {
		t.Fatalf(".partial dir left behind: %v", err)
	}
	if got := reg.Counter("flight_captures_total").Value(); got != 1 {
		t.Fatalf("flight_captures_total = %d, want 1", got)
	}
	bundles, err := Bundles(dir)
	if err != nil || len(bundles) != 1 || bundles[0] != path {
		t.Fatalf("Bundles = %v, %v; want [%s]", bundles, err, path)
	}

	// The bundle's slo.json must carry the breached rule.
	data, err := os.ReadFile(filepath.Join(path, "slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ticks_low") {
		t.Fatalf("slo.json misses the breached rule: %s", data)
	}
}

func TestCapturePruning(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, 2)
	for i := 0; i < 3; i++ {
		if _, err := rec.Capture(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	bundles, err := Bundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("retained %d bundles, want 2 (maxBundles)", len(bundles))
	}
	// The survivors are the newest two (seq 002 and 003).
	for _, b := range bundles {
		if strings.HasSuffix(b, "-r0") {
			t.Fatalf("oldest bundle %s survived pruning", b)
		}
	}
}

// A panic captured the way experiments.CLI.Start's deferred hook does it
// (recover, Capture("panic <value>"), re-panic) leaves one bundle whose
// name carries the panic value, and the panic still surfaces.
func TestCapturePanicRecaptures(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, 8)
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("the capture hook swallowed the panic")
			}
		}()
		defer func() {
			if v := recover(); v != nil {
				_, _ = rec.Capture(fmt.Sprintf("panic %v", v))
				panic(v)
			}
		}()
		panic("boom")
	}()
	bundles, err := Bundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("Bundles after panic = %v, %v", bundles, err)
	}
	if !strings.Contains(bundles[0], "panic_boom") {
		t.Fatalf("panic bundle name %q lacks the panic value", bundles[0])
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"":                       "manual",
		"SLO breach: rule/x":     "slo_breach__rule_x",
		"fatal open /etc/passwd": "fatal_open__etc_passwd",
	} {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
	if got := sanitizeReason(strings.Repeat("x", 200)); len(got) != 64 {
		t.Errorf("long reason not truncated: %d chars", len(got))
	}
}

// SIGUSR1 asks a live process for its black box without stopping it.
func TestNotifySignalsCapturesOnUSR1(t *testing.T) {
	dir := t.TempDir()
	rec, _ := newTestRecorder(t, dir, 8)
	stop := rec.NotifySignals()
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if bundles, _ := Bundles(dir); len(bundles) == 1 {
			if !strings.Contains(bundles[0], "sigusr1") {
				t.Fatalf("signal bundle %q lacks the sigusr1 reason", bundles[0])
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("SIGUSR1 produced no bundle within 5s")
}

// spin burns CPU under the current goroutine's pprof labels long enough
// for the 100 Hz sampler to land hits.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e4; i++ {
			x += float64(i) * 1.000001
		}
	}
	_ = x
}

func TestParseCPUProfileAttributesPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-profile capture in -short")
	}
	var buf bytes.Buffer
	// Retry: on a loaded machine one window can miss samples.
	for attempt := 0; attempt < 3; attempt++ {
		buf.Reset()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		pprof.Do(context.Background(), pprof.Labels("phase", "hot"), func(context.Context) {
			spin(400 * time.Millisecond)
		})
		pprof.StopCPUProfile()
		prof, err := ParseCPUProfile(buf.Bytes())
		if err != nil {
			t.Fatalf("ParseCPUProfile: %v", err)
		}
		if prof.TotalNanos > 0 && prof.Phases["hot"] > 0 {
			if prof.Phases["hot"] > prof.TotalNanos {
				t.Fatalf("phase time %d exceeds total %d", prof.Phases["hot"], prof.TotalNanos)
			}
			return
		}
	}
	t.Fatal("no labeled samples in 3 profile windows")
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseCPUProfile(nil); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestProfilerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-profile capture in -short")
	}
	reg := obs.NewRegistry()
	p, err := StartProfiler(ProfilerConfig{Registry: reg, Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Exclusivity: only one active profiler per process.
	if _, err := StartProfiler(ProfilerConfig{Registry: reg}); err == nil {
		t.Fatal("second StartProfiler succeeded")
	}

	tok := BeginPhase("test_phase")
	spin(150 * time.Millisecond)
	// Allocate something attributable.
	s := make([]byte, 1<<20)
	_ = s
	tok.End()

	// Snapshot must close the in-flight window and return a profile.
	snap := p.Snapshot()
	if len(snap) == 0 {
		t.Fatal("Snapshot returned no profile bytes")
	}
	if _, err := ParseCPUProfile(snap); err != nil {
		t.Fatalf("snapshot unparsable: %v", err)
	}
	p.Close()
	p.Close() // idempotent
	if active.Load() != nil {
		t.Fatal("Close left the profiler active")
	}
	if reg.Counter("profile_windows_total").Value() == 0 {
		t.Fatal("no profile windows closed")
	}
	// The alloc gauge saw the 1 MiB slice (process-global counter, so
	// only a lower bound is asserted).
	snapshot := reg.Snapshot()
	var alloc float64
	for name, v := range snapshot {
		if strings.HasPrefix(name, `profile_alloc_bytes_total{phase="test_phase"`) {
			alloc, _ = v.(float64)
		}
	}
	if alloc < 1<<20 {
		t.Fatalf("profile_alloc_bytes_total{test_phase} = %v, want >= 1MiB", alloc)
	}
}

func TestRecorderUsesProfilerWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU-profile capture in -short")
	}
	dir := t.TempDir()
	rec, reg := newTestRecorder(t, dir, 8)
	p, err := StartProfiler(ProfilerConfig{Registry: reg, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec.SetProfiler(p)
	spin(100 * time.Millisecond)
	path, err := rec.Capture("with-profiler")
	if err != nil {
		t.Fatal(err)
	}
	// Capture must not have waited the 1-minute window: the forced
	// snapshot closes it early and the bundle carries its bytes.
	if fi, err := os.Stat(filepath.Join(path, "cpu.pprof")); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu.pprof missing from profiler-backed bundle: %v", err)
	}
}
