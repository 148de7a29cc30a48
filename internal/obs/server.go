package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Status is a small concurrent key→value board for the /status
// endpoint: components post their live state ("role", "round", …) and
// the server snapshots it per request. Nil-safe.
type Status struct {
	mu sync.Mutex
	m  map[string]any
}

// NewStatus returns an empty status board.
func NewStatus() *Status { return &Status{m: map[string]any{}} }

// Set stores one key.
func (s *Status) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.m[key] = value
	s.mu.Unlock()
}

// Snapshot returns a copy of the board (nil for a nil board).
func (s *Status) Snapshot() map[string]any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]any, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// ServerConfig configures the introspection HTTP listener.
type ServerConfig struct {
	// Addr is the TCP listen address; ":0" forms pick an ephemeral port
	// (read the resolved one from Server.Addr).
	Addr string
	// Registry backs /metrics and the metrics part of /status.
	Registry *Registry
	// Status, when set, backs the "status" object of /status.
	Status *Status
	// Trace, when set, backs /debug/trace (Chrome trace-event JSON).
	Trace *Trace
	// Handlers mounts extra endpoints by path — the tsdb's /api/query,
	// /api/series and /dashboard, the SLO engine's /api/alerts. They are
	// listed on the index page alongside the built-ins.
	Handlers map[string]http.Handler
}

// Server serves /metrics (Prometheus text), /status (JSON) and
// /debug/pprof/* for live profiling.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// StartServer listens on cfg.Addr and serves in a background goroutine.
// Process-level gauges (goroutines, heap in use, peak RSS) are
// registered on cfg.Registry as a side effect, so every server-carrying
// process reports them without extra wiring.
func StartServer(cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	RegisterProcessMetrics(cfg.Registry)
	s := &Server{ln: ln, start: time.Now()}

	paths := []string{"/metrics", "/status", "/debug/trace", "/debug/pprof/"}
	for p := range cfg.Handlers {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "middle observability\n\n")
		for _, p := range paths {
			fmt.Fprintln(w, p)
		}
	})
	for p, h := range cfg.Handlers {
		mux.Handle(p, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"now":            time.Now().UTC().Format(time.RFC3339Nano),
			"uptime_seconds": time.Since(s.start).Seconds(),
			"goroutines":     runtime.NumGoroutine(),
			"status":         cfg.Status.Snapshot(),
			"metrics":        cfg.Registry.Snapshot(),
		})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Trace.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the resolved listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers immediately. Prefer
// Shutdown, which lets in-flight scrapes finish.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new requests and waits for in-flight
// handlers (a scrape mid-response, a pprof profile) to complete, up to
// ctx's deadline; past the deadline it falls back to a hard Close.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return err
	}
	return nil
}

// RegisterProcessMetrics adds live process gauges (goroutines, heap
// in-use bytes, CPU count, peak RSS, registered-series count) to the
// registry, evaluated at scrape time. Idempotent (re-registration
// replaces the function with an equivalent one) and nil-safe;
// StartServer calls it, so any process serving /metrics gets the
// process family for free.
func RegisterProcessMetrics(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("process_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("process_heap_inuse_bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse)
	})
	r.GaugeFunc("process_cpu_count", func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	r.GaugeFunc("process_peak_rss_bytes", func() float64 {
		return float64(PeakRSSBytes())
	})
	r.GaugeFunc("obs_series", func() float64 {
		return float64(r.NumSeries())
	})
}
