package flight

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"middle/internal/obs"
)

// ProfilerConfig configures the continuous profiler.
type ProfilerConfig struct {
	// Registry receives the profile_cpu_seconds_total{phase} and
	// profile_alloc_bytes_total{phase} series (required).
	Registry *obs.Registry
	// Interval is the CPU-profile window length: the profiler runs
	// back-to-back windows of this size, attributing each to phases as
	// it closes (default 5s).
	Interval time.Duration
}

// Profiler samples the process continuously: back-to-back CPU-profile
// windows whose samples are attributed to phases via the pprof "phase"
// label that BeginPhase sets, published as cumulative per-phase series
// the tsdb scrapes and SLO rules can reduce. Starting a profiler makes
// it the process's active one (BeginPhase consults it); Close detaches
// and stops it. A nil *Profiler is inert.
type Profiler struct {
	cfg ProfilerConfig

	// labelCtxs caches one pprof-labeled context per phase so BeginPhase
	// on a warm phase does not rebuild the label set.
	labelMu   sync.RWMutex
	labelCtxs map[string]context.Context

	// last holds the most recently closed window's raw profile bytes so
	// a Capture has a CPU profile without waiting a full window.
	lastMu sync.Mutex
	last   []byte

	windows *obs.Counter

	force    chan chan []byte
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartProfiler launches the windowed capture loop and installs the
// profiler as the process's active one. It fails when another profiler
// is already active or cfg.Registry is nil.
func StartProfiler(cfg ProfilerConfig) (*Profiler, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("flight: ProfilerConfig.Registry is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	p := &Profiler{
		cfg:       cfg,
		labelCtxs: map[string]context.Context{},
		windows:   cfg.Registry.Counter("profile_windows_total"),
		force:     make(chan chan []byte),
		stop:      make(chan struct{}),
	}
	if !active.CompareAndSwap(nil, p) {
		return nil, fmt.Errorf("flight: a profiler is already active in this process")
	}
	p.wg.Add(1)
	go p.loop()
	return p, nil
}

// Close stops the capture loop and detaches the profiler from
// BeginPhase. Nil-safe; idempotent.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	active.CompareAndSwap(p, nil)
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Snapshot closes the in-flight CPU window early, ingests it, and
// returns its raw pprof bytes — the recorder's way to put a CPU profile
// in a bundle without conflicting with the runtime's single-profiler
// limit. Falls back to the last closed window when the loop is gone.
// Nil-safe (returns nil).
func (p *Profiler) Snapshot() []byte {
	if p == nil {
		return nil
	}
	reply := make(chan []byte, 1)
	select {
	case p.force <- reply:
		return <-reply
	case <-p.stop:
		p.lastMu.Lock()
		defer p.lastMu.Unlock()
		return append([]byte(nil), p.last...)
	}
}

// loop runs back-to-back profile windows until Close.
func (p *Profiler) loop() {
	defer p.wg.Done()
	var buf bytes.Buffer
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		buf.Reset()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Another profiler holds the runtime slot (e.g. an in-flight
			// /debug/pprof/profile request); wait a window.
			select {
			case <-time.After(p.cfg.Interval):
			case reply := <-p.force:
				p.lastMu.Lock()
				reply <- append([]byte(nil), p.last...)
				p.lastMu.Unlock()
			case <-p.stop:
				return
			}
			continue
		}
		var reply chan []byte
		select {
		case <-time.After(p.cfg.Interval):
		case reply = <-p.force:
		case <-p.stop:
			pprof.StopCPUProfile()
			p.ingest(buf.Bytes())
			return
		}
		pprof.StopCPUProfile()
		p.ingest(buf.Bytes())
		if reply != nil {
			reply <- append([]byte(nil), buf.Bytes()...)
		}
	}
}

// ingest parses one closed window and adds its per-phase CPU time to
// the cumulative gauges; the raw bytes are kept for Snapshot/Capture.
func (p *Profiler) ingest(raw []byte) {
	p.lastMu.Lock()
	p.last = append(p.last[:0], raw...)
	p.lastMu.Unlock()
	p.windows.Inc()
	prof, err := ParseCPUProfile(raw)
	if err != nil {
		return
	}
	for phase, ns := range prof.Phases {
		p.cpuGauge(phase).Add(float64(ns) / 1e9)
	}
}

// labelCtx returns the cached pprof-labeled context for a phase.
func (p *Profiler) labelCtx(phase string) context.Context {
	p.labelMu.RLock()
	ctx, ok := p.labelCtxs[phase]
	p.labelMu.RUnlock()
	if ok {
		return ctx
	}
	p.labelMu.Lock()
	defer p.labelMu.Unlock()
	if ctx, ok = p.labelCtxs[phase]; ok {
		return ctx
	}
	ctx = pprof.WithLabels(context.Background(), pprof.Labels("phase", phase))
	p.labelCtxs[phase] = ctx
	return ctx
}

// cpuGauge and allocGauge resolve the per-phase cumulative series; the
// registry dedups registration, so resolving per window is cheap.
// Gauges (not counters) because the values are fractional seconds /
// byte floats fed by Add.
func (p *Profiler) cpuGauge(phase string) *obs.Gauge {
	return p.cfg.Registry.Gauge("profile_cpu_seconds_total", "phase", phase)
}

func (p *Profiler) allocGauge(phase string) *obs.Gauge {
	return p.cfg.Registry.Gauge("profile_alloc_bytes_total", "phase", phase)
}
