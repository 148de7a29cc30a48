package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/slo"
	"middle/internal/obs/tsdb"
)

// EventRing is a bounded ring of recent JSONL event lines. It is an
// io.Writer made to sit behind an obs.Emitter (which writes exactly one
// line per Write call), usually teed with the real event sink, so the
// recorder always has the last N events even when nothing persists
// them. Nil-safe: a nil ring's methods no-op.
type EventRing struct {
	mu    sync.Mutex
	lines [][]byte
	next  int
	full  bool
}

// DefaultEventRingSize is the NewEventRing default: 4096 recent events,
// a few hundred KiB at typical line sizes.
const DefaultEventRingSize = 4096

// NewEventRing returns a ring keeping the last n event lines
// (n <= 0 selects DefaultEventRingSize).
func NewEventRing(n int) *EventRing {
	if n <= 0 {
		n = DefaultEventRingSize
	}
	return &EventRing{lines: make([][]byte, n)}
}

// Write stores one event line (implements io.Writer; always succeeds).
func (r *EventRing) Write(p []byte) (int, error) {
	if r == nil {
		return len(p), nil
	}
	r.mu.Lock()
	r.lines[r.next] = append(r.lines[r.next][:0], p...)
	r.next++
	if r.next == len(r.lines) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
	return len(p), nil
}

// Snapshot returns the buffered lines, oldest first.
func (r *EventRing) Snapshot() [][]byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]byte
	if r.full {
		for i := r.next; i < len(r.lines); i++ {
			out = append(out, append([]byte(nil), r.lines[i]...))
		}
	}
	for i := 0; i < r.next; i++ {
		out = append(out, append([]byte(nil), r.lines[i]...))
	}
	return out
}

// Tee returns a writer feeding both the ring and w. Either side may be
// nil; when both are, it returns nil (which obs.NewEmitter treats as
// "no sink", keeping the emitter inert).
func (r *EventRing) Tee(w io.Writer) io.Writer {
	if r == nil {
		return w
	}
	if w == nil {
		return r
	}
	return teeWriter{ring: r, w: w}
}

type teeWriter struct {
	ring *EventRing
	w    io.Writer
}

func (t teeWriter) Write(p []byte) (int, error) {
	_, _ = t.ring.Write(p)
	return t.w.Write(p)
}

// RecorderConfig wires a Recorder to the run's observability state.
// Only Dir is required; every other source is optional and its bundle
// file is simply absent when nil.
type RecorderConfig struct {
	// Dir is where bundles land (created if missing).
	Dir string
	// Manifest identifies the run (name, argv, flags/seed in Extra);
	// build info is filled in at capture time.
	Manifest obs.Manifest
	// Registry provides the metrics snapshot.
	Registry *obs.Registry
	// Store provides the tsdb dump.
	Store *tsdb.Store
	// Engine provides SLO alert state and Breached.
	Engine *slo.Engine
	// Trace provides the span collector dump.
	Trace *obs.Trace
	// Events is the recent-event ring.
	Events *EventRing
}

// maxBundles bounds how many bundles a recorder's Dir retains; older
// ones are pruned after each capture.
const maxBundles = 8

// Recorder captures postmortem bundles: timestamped directories
// holding everything needed to explain a failure after the process is
// gone. Captures are atomic (written to a .partial directory, then
// renamed) so a bundle either exists completely or not at all.
// A nil *Recorder is fully inert.
type Recorder struct {
	cfg        RecorderConfig
	profiler   *Profiler
	maxBundles int // maxBundles; tests shrink it

	mu  sync.Mutex
	seq int

	captures *obs.Counter
}

// NewRecorder creates cfg.Dir and returns a recorder. Fails fast on an
// uncreatable directory so a daemon won't discover at crash time that
// its black box was never writable.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: RecorderConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: creating %s: %w", cfg.Dir, err)
	}
	return &Recorder{
		cfg:        cfg,
		maxBundles: maxBundles,
		captures:   cfg.Registry.Counter("flight_captures_total"),
	}, nil
}

// SetProfiler attaches the continuous profiler so captures include its
// current CPU window instead of competing for the runtime's single
// profiler slot. Nil-safe on both sides.
func (r *Recorder) SetProfiler(p *Profiler) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.profiler = p
	r.mu.Unlock()
}

// Capture writes one bundle named bundle-<utc>-<seq>-<reason> and
// returns its path. Concurrent captures serialize; errors on individual
// files are recorded in the bundle's manifest rather than aborting the
// capture (a partial bundle beats none at a crash site). Nil-safe
// (returns "", nil).
func (r *Recorder) Capture(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	now := time.Now().UTC()
	name := fmt.Sprintf("bundle-%s-%03d-%s",
		now.Format("20060102T150405"), r.seq, sanitizeReason(reason))
	final := filepath.Join(r.cfg.Dir, name)
	bw := bundleWriter{dir: final + ".partial"}
	if err := os.MkdirAll(bw.dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: creating bundle dir: %w", err)
	}
	r.writeProfiles(&bw)
	r.writeState(&bw)
	// Manifest last, so its "errors" list covers every other file.
	m := r.cfg.Manifest
	if m.Build == (obs.Build{}) {
		m.Build = obs.ReadBuild()
	}
	bw.writeJSON("manifest.json", map[string]any{
		"reason":      reason,
		"captured_at": now.Format(time.RFC3339Nano),
		"manifest":    m,
		"errors":      bw.errs,
	})
	if err := os.Rename(bw.dir, final); err != nil {
		return "", fmt.Errorf("flight: finalizing bundle: %w", err)
	}
	r.captures.Inc()
	r.pruneLocked()
	return final, nil
}

// bundleWriter writes the files of one bundle into dir, recording a file
// that fails in errs instead of giving up on the bundle.
type bundleWriter struct {
	dir  string
	errs []string
}

// write creates file and fills it with fn.
func (bw *bundleWriter) write(file string, fn func(io.Writer) error) {
	f, err := os.Create(filepath.Join(bw.dir, file))
	if err != nil {
		bw.errs = append(bw.errs, file+": "+err.Error())
		return
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		bw.errs = append(bw.errs, file+": "+err.Error())
	}
}

// writeJSON writes v to file as indented JSON.
func (bw *bundleWriter) writeJSON(file string, v any) {
	bw.write(file, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeProfiles adds the goroutine stacks (text, debug=2: full stacks
// with states), the heap profile and a CPU profile: the profiler's
// current window when one is attached, else a fresh short capture
// (skipped if the runtime slot is busy).
func (r *Recorder) writeProfiles(bw *bundleWriter) {
	bw.write("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	})
	bw.write("heap.pprof", func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	})
	cpu := r.profiler.Snapshot()
	if len(cpu) == 0 {
		if r.profiler != nil {
			return
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			bw.errs = append(bw.errs, "cpu.pprof: "+err.Error())
			return
		}
		time.Sleep(200 * time.Millisecond)
		pprof.StopCPUProfile()
		cpu = buf.Bytes()
	}
	bw.write("cpu.pprof", func(w io.Writer) error {
		_, err := w.Write(cpu)
		return err
	})
}

// writeState adds what the configured sources hold: the tsdb history
// (fresh final scrape included), the recent events, the trace spans, the
// SLO state and a metrics snapshot.
func (r *Recorder) writeState(bw *bundleWriter) {
	if r.cfg.Store != nil {
		r.cfg.Store.ScrapeOnce()
		bw.write("tsdb.json", r.cfg.Store.WriteDump)
	}
	if r.cfg.Events != nil {
		bw.write("events.jsonl", func(w io.Writer) error {
			for _, line := range r.cfg.Events.Snapshot() {
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if r.cfg.Trace != nil {
		bw.write("trace.json", r.cfg.Trace.WriteJSON)
	}
	if r.cfg.Engine != nil {
		bw.writeJSON("slo.json", map[string]any{
			"alerts":   r.cfg.Engine.Alerts(),
			"breached": r.cfg.Engine.Breached(),
		})
	}
	if r.cfg.Registry != nil {
		bw.writeJSON("metrics.json", r.cfg.Registry.Snapshot())
	}
}

// pruneLocked removes the oldest bundles beyond maxBundles (the
// lexicographic sort of the timestamped names is the age order).
func (r *Recorder) pruneLocked() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && !strings.HasSuffix(e.Name(), ".partial") {
			bundles = append(bundles, e.Name())
		}
	}
	sort.Strings(bundles)
	for len(bundles) > r.maxBundles {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, bundles[0]))
		bundles = bundles[1:]
	}
}

// sanitizeReason maps a free-form reason to a filesystem-safe slug.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-' || c == '_':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	const max = 64
	s := b.String()
	if len(s) > max {
		s = s[:max]
	}
	return s
}

// NotifySignals installs the forensic signal handlers: SIGQUIT captures
// a bundle and exits 2 (replacing the runtime's stack dump with a full
// bundle); SIGUSR1 captures and continues — a live process can be asked
// for its black box at any time. Returns a stop func. Nil-safe (no-op
// stop).
func (r *Recorder) NotifySignals() func() {
	if r == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGQUIT, syscall.SIGUSR1)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-ch:
				switch sig {
				case syscall.SIGQUIT:
					_, _ = r.Capture("sigquit")
					os.Exit(2)
				case syscall.SIGUSR1:
					_, _ = r.Capture("sigusr1")
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// Bundles lists the completed bundle directories under dir, oldest
// first.
func Bundles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && !strings.HasSuffix(e.Name(), ".partial") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
