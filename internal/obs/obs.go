// Package obs is the repository's observability kit: named counters,
// gauges and fixed-bucket histograms behind a registry, a lightweight
// span timer for per-phase wall-clock breakdowns, a structured JSONL
// event emitter, Prometheus-text exposition, an HTTP introspection
// server (/metrics, /status, /debug/pprof/*) and machine-readable run
// summaries. Standard library only — no external dependencies.
//
// Observability is off by default and must cost nothing when off. The
// contract is the nil registry: every constructor and instrument method
// is safe on a nil receiver and does no work there, so hot paths hold
// instrument pointers unconditionally —
//
//	span := reg.Span("sim_phase_seconds", "phase", "local_train")
//	...
//	tok := span.Begin()   // nil span: zero-cost, no clock read
//	work()
//	tok.End()
//
// — and a component is instrumented by handing it a *Registry (or not).
// Instruments update via sync/atomic only: all of them are safe for
// concurrent use and allocation-free after registration.
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// The instrument kinds, spelled as the exposition's TYPE line and
// SeriesValue.Kind name them.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one registered instrument: a metric family name plus a
// fixed label set. Exactly one of c/g/gf/h is non-nil.
type series struct {
	family string
	labels string // rendered `k1="v1",k2="v2"`, or ""
	kind   string
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// seriesName renders the series key family{labels}, or the bare family.
func seriesName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// Registry is a named set of instruments. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled mode: it hands out
// nil instruments whose methods do nothing.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*series
	kinds map[string]string // family -> kind, guards cross-type reuse
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}, kinds: map[string]string{}}
}

// NumSeries returns the number of registered series (0 for nil).
func (r *Registry) NumSeries() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byKey)
}

// renderLabels turns alternating key, value strings into the canonical
// Prometheus label body. Label values are escaped per the text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	return b.String()
}

// register resolves (family, labels) to its series, creating it with
// mk on first use and panicking on a kind mismatch with prior use.
func (r *Registry) register(family, k string, labels []string, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.kinds[family]; ok && prior != k {
		panic(fmt.Sprintf("obs: %s already registered as %s, not %s", family, prior, k))
	}
	rendered := renderLabels(labels)
	key := seriesName(family, rendered)
	if existing, ok := r.byKey[key]; ok {
		return existing
	}
	made := mk()
	made.family, made.labels, made.kind = family, rendered, k
	r.byKey[key] = made
	r.kinds[family] = k
	return made
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Counter registers (or fetches) a counter series. Labels are
// alternating key, value pairs fixed at registration.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, kindCounter, labels, func() *series {
		return &series{c: &Counter{}}
	})
	return s.c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- gauge -----------------------------------------------------------------

// Gauge is a float64 that can go up and down. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(name, kindGauge, labels, func() *series {
		return &series{g: &Gauge{}}
	})
	return s.g
}

// GaugeFunc registers a gauge whose value is computed at read time
// (exposition or snapshot). Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.register(name, kindGauge, labels, func() *series {
		return &series{}
	})
	r.mu.Lock()
	s.gf = fn
	s.g = nil
	r.mu.Unlock()
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d atomically.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
