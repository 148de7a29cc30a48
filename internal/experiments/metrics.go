package experiments

import (
	"context"
	"net/http"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/obs/slo"
	"middle/internal/obs/tsdb"
	"middle/internal/tensor"
)

// Metrics bundles the opt-in observability wiring shared by the
// command-line daemons: one registry carrying process, tensor-kernel
// and (via TaskSetup.Obs / fednet configs) run metrics, a status board
// for the JSON endpoint, and the HTTP listener serving /metrics,
// /status and /debug/pprof. A nil *Metrics is the disabled mode: every
// method is a no-op and Registry() returns nil, which all instruments
// accept. CLI.Start builds it and CLI.Finish reads it out.
type Metrics struct {
	reg      *obs.Registry
	status   *obs.Status
	server   *obs.Server
	trace    *obs.Trace
	store    *tsdb.Store
	engine   *slo.Engine
	recorder *flight.Recorder
	profiler *flight.Profiler
	started  time.Time
}

// MetricsConfig configures the full observability bundle. The zero
// value (all fields empty) disables everything.
type MetricsConfig struct {
	// Addr is the introspection listen address; "" starts no HTTP
	// server (the registry/tsdb/slo can still run headless when
	// TSDBInterval or SLORules ask for them).
	Addr string
	// TSDBInterval enables the embedded time-series store at this
	// scrape cadence. 0 means 1s when something reads the store — Addr
	// (/api/query, /dashboard), SLORules or TSDBOut — and no store
	// otherwise.
	TSDBInterval time.Duration
	// TSDBOut, when set, is where the store's history is dumped at the
	// end of the run (middlesim's -tsdb-out).
	TSDBOut string
	// SLORules, when non-empty, is parsed by slo.ParseRules ("default"
	// selects the standing rule set) and evaluated continuously; it
	// implies the tsdb.
	SLORules string
	// Events receives slo_breach/slo_resolve events alongside the
	// run's other telemetry.
	Events *obs.Emitter

	// FlightDir, when set, arms the flight recorder: postmortem bundles
	// are captured there on SLO breach (and by the daemons on panic,
	// SIGQUIT/SIGUSR1 and fatal exits).
	FlightDir string
	// ProfileInterval, when > 0, starts the continuous profiler with
	// this CPU-window length, publishing profile_cpu_seconds_total and
	// profile_alloc_bytes_total per phase.
	ProfileInterval time.Duration
	// FlightManifest identifies the run inside captured bundles (name,
	// argv, flags/seed in Extra).
	FlightManifest obs.Manifest
	// FlightEvents is the recent-event ring the bundles snapshot;
	// usually the same ring the daemon's emitter tees into.
	FlightEvents *flight.EventRing
}

// StartMetricsConfig starts the observability bundle: registry +
// status + trace always; HTTP server when Addr is set; tsdb store when
// TSDBInterval > 0 or something reads it; SLO engine when SLORules
// non-empty. Fully disabled config returns (nil, nil): the nil *Metrics
// threads a nil registry through the stack. Kernel-stats collection in
// the tensor package is switched on so the tensor_kernel_* gauges report
// live counts.
func StartMetricsConfig(cfg MetricsConfig) (*Metrics, error) {
	if cfg.Addr == "" && cfg.TSDBInterval <= 0 && cfg.SLORules == "" && cfg.TSDBOut == "" &&
		cfg.FlightDir == "" && cfg.ProfileInterval <= 0 {
		return nil, nil
	}
	r := obs.NewRegistry()
	obs.RegisterProcessMetrics(r)
	registerTensorMetrics(r)
	m := &Metrics{reg: r, status: obs.NewStatus(), trace: obs.NewTrace(0), started: time.Now()}

	interval := cfg.TSDBInterval
	if interval <= 0 && (cfg.Addr != "" || cfg.SLORules != "" || cfg.TSDBOut != "") {
		interval = time.Second
	}
	if interval > 0 {
		store, err := tsdb.New(tsdb.Config{Registry: r, Interval: interval})
		if err != nil {
			return nil, err
		}
		m.store = store
	}
	if cfg.SLORules != "" {
		rules, err := slo.ParseRules(cfg.SLORules)
		if err != nil {
			return nil, err
		}
		engine, err := slo.New(slo.Config{
			Store:  m.store,
			Rules:  rules,
			Events: cfg.Events,
			// Late-bound through m so the recorder (created below) is
			// seen: every breach captures a bundle before the exit gate
			// can tear the process down.
			OnBreach: func(rule string) {
				m.CaptureFlight("slo_breach " + rule)
			},
		})
		if err != nil {
			return nil, err
		}
		m.engine = engine
	}
	if cfg.FlightDir != "" {
		rec, err := flight.NewRecorder(flight.RecorderConfig{
			Dir:      cfg.FlightDir,
			Manifest: cfg.FlightManifest,
			Registry: r,
			Store:    m.store,
			Engine:   m.engine,
			Trace:    m.trace,
			Events:   cfg.FlightEvents,
		})
		if err != nil {
			return nil, err
		}
		m.recorder = rec
	}
	if cfg.ProfileInterval > 0 {
		prof, err := flight.StartProfiler(flight.ProfilerConfig{
			Registry: r,
			Interval: cfg.ProfileInterval,
		})
		if err != nil {
			return nil, err
		}
		m.profiler = prof
		m.recorder.SetProfiler(prof)
	}

	if cfg.Addr != "" {
		handlers := map[string]http.Handler{}
		if m.store != nil {
			handlers["/api/query"] = m.store.QueryHandler()
			handlers["/api/series"] = m.store.SeriesHandler()
			handlers["/dashboard"] = m.store.DashboardHandler()
		}
		if m.engine != nil {
			handlers["/api/alerts"] = m.engine.Handler()
		}
		srv, err := obs.StartServer(obs.ServerConfig{
			Addr: cfg.Addr, Registry: r, Status: m.status, Trace: m.trace,
			Handlers: handlers,
		})
		if err != nil {
			return nil, err
		}
		m.server = srv
	}
	m.store.Start()
	m.engine.Start()
	return m, nil
}

// registerTensorMetrics bridges the tensor package's dependency-free
// kernel counters into the registry as scrape-time gauges.
func registerTensorMetrics(r *obs.Registry) {
	tensor.EnableKernelStats(true)
	r.GaugeFunc("tensor_kernel_matmul_calls", func() float64 {
		return float64(tensor.ReadKernelStats().MatMulCalls)
	})
}

// Registry returns the backing registry (nil when disabled).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Trace returns the run's span collector, served live on /debug/trace
// (nil when disabled). Thread it into hfl.Config.Trace or the fednet
// component configs to record round spans.
func (m *Metrics) Trace() *obs.Trace {
	if m == nil {
		return nil
	}
	return m.trace
}

// CaptureFlight captures a postmortem bundle with the given reason, when
// the flight recorder is armed. Nil-safe.
func (m *Metrics) CaptureFlight(reason string) {
	if m != nil {
		_, _ = m.recorder.Capture(reason) // best effort: a failed capture must not mask the reason for it
	}
}

// Close stops the tsdb/SLO loops and the HTTP listener gracefully:
// in-flight scrapes get up to two seconds to drain before the
// listener is torn down.
func (m *Metrics) Close() {
	if m == nil {
		return
	}
	m.profiler.Close()
	m.store.Close()
	m.engine.Close()
	if m.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = m.server.Shutdown(ctx)
	}
}
