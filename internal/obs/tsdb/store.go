// Package tsdb is an in-process, dependency-free time-series store for
// the obs registry: it scrapes every registered series at a fixed
// interval into per-series ring buffers of bounded capacity, so any run
// carries its own queryable history — no Prometheus server required.
//
// Memory is bounded two ways. Each series holds at most 720 points;
// when the rings fill, every series is decimated in place (every second
// point dropped) and the append stride doubles, so retention keeps
// growing at halving resolution — a classic downsampling ring. And the
// store admits at most 4,096 series (later discoveries are dropped and
// counted in tsdb_dropped_series_total).
//
// Histograms are scraped structurally: alongside the raw _count series,
// the store keeps a ring of cumulative-bucket snapshots per histogram
// and synthesizes rolling one-minute quantile series (<name>_p50 and
// _p99) from bucket deltas at each scrape — so "round p99 over the last
// minute" is an ordinary scalar series, queryable over /api/query and
// usable in SLO rules.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"middle/internal/obs"
)

// Config configures a Store.
type Config struct {
	// Registry is the scrape source (required).
	Registry *obs.Registry
	// Interval between scrapes for Start (default 1s).
	Interval time.Duration
}

const (
	// capacity is the per-series point budget. At the default 1s
	// interval the first decimation lands after 12 minutes.
	capacity = 720
	// maxSeries bounds the number of stored series, synthesized
	// quantile series included.
	maxSeries = 4096
	// quantileWindow is the rolling window of the synthesized quantiles.
	quantileWindow = time.Minute
)

// quantiles are the rolling quantiles synthesized per histogram.
var quantiles = []float64{0.5, 0.99}

// Point is one sample: T is unix milliseconds, V the value.
type Point struct {
	T int64
	V float64
}

// SeriesData is one series' points inside a query response.
type SeriesData struct {
	Name   string
	Points []Point
}

// ring is one scalar series' samples, appended in scrape order.
type ring struct {
	ts []int64
	vs []float64
}

// histRing keeps one histogram's cumulative-bucket snapshots so window
// deltas (and from them quantiles) can be computed at any scrape.
type histRing struct {
	bounds []float64
	ts     []int64
	cums   [][]int64
}

// Store scrapes a registry into bounded rings. All methods are
// goroutine-safe; a nil *Store is the disabled mode (every method
// no-ops), so callers thread it unconditionally.
type Store struct {
	cfg Config

	mu      sync.Mutex
	scalars map[string]*ring
	hists   map[string]*histRing
	stride  int   // append every stride-th scrape
	scrapes int64 // scrapes seen (including strided-out ones)

	// capacity and maxSeries start at the package constants; tests
	// shrink them before the first scrape.
	capacity, maxSeries int

	dropCount *obs.Counter

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a store over cfg.Registry. It registers its own meta
// series (tsdb_series, tsdb_dropped_series_total)
// on the registry so the store's health is visible in its own scrape.
func New(cfg Config) (*Store, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("tsdb: Config.Registry is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	s := &Store{
		cfg:       cfg,
		scalars:   map[string]*ring{},
		hists:     map[string]*histRing{},
		stride:    1,
		capacity:  capacity,
		maxSeries: maxSeries,
	}
	s.dropCount = cfg.Registry.Counter("tsdb_dropped_series_total")
	cfg.Registry.GaugeFunc("tsdb_series", func() float64 {
		return float64(s.NumSeries())
	})
	return s, nil
}

// Interval returns the configured scrape interval (0 for nil).
func (s *Store) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Interval
}

// Start launches the background scrape loop. Close stops it.
func (s *Store) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.ScrapeOnce()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the scrape loop (if running) and takes one final scrape
// so short runs always end with fresh points. Nil-safe.
func (s *Store) Close() {
	if s == nil {
		return
	}
	if s.stop != nil {
		close(s.stop)
		s.wg.Wait()
		s.stop = nil
	}
	s.ScrapeOnce()
}

// ScrapeOnce collects the registry now and appends one sample per
// series (subject to the current stride). Nil-safe.
func (s *Store) ScrapeOnce() {
	if s == nil {
		return
	}
	s.scrapeAt(time.Now())
}

func (s *Store) scrapeAt(now time.Time) {
	// Collect outside s.mu: GaugeFuncs (including tsdb_series, which
	// takes s.mu) run here, and instrument reads never block writers.
	snap := s.cfg.Registry.Collect()
	ts := now.UnixMilli()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	if (s.scrapes-1)%int64(s.stride) != 0 {
		return
	}
	if s.fullLocked() {
		s.decimateLocked()
	}
	for _, sv := range snap {
		switch sv.Kind {
		case "histogram":
			s.appendHistLocked(sv.Name, sv.Hist, ts)
		default:
			s.appendScalarLocked(sv.Name, ts, sv.Value)
		}
	}
}

// fullLocked reports whether any ring reached capacity (rings fill in
// lockstep, so the longest one decides).
func (s *Store) fullLocked() bool {
	for _, r := range s.scalars {
		if len(r.ts) >= s.capacity {
			return true
		}
	}
	for _, h := range s.hists {
		if len(h.ts) >= s.capacity {
			return true
		}
	}
	return false
}

// decimateLocked halves every ring's resolution in place (keeping the
// newest point) and doubles the append stride, so the same capacity
// spans twice the wall-clock from here on.
func (s *Store) decimateLocked() {
	for _, r := range s.scalars {
		k := 0
		for i := len(r.ts) % 2; i < len(r.ts); i += 2 {
			r.ts[k], r.vs[k] = r.ts[i], r.vs[i]
			k++
		}
		r.ts, r.vs = r.ts[:k], r.vs[:k]
	}
	for _, h := range s.hists {
		k := 0
		for i := len(h.ts) % 2; i < len(h.ts); i += 2 {
			h.ts[k], h.cums[k] = h.ts[i], h.cums[i]
			k++
		}
		h.ts, h.cums = h.ts[:k], h.cums[:k]
	}
	s.stride *= 2
}

func (s *Store) appendScalarLocked(name string, ts int64, v float64) {
	r, ok := s.scalars[name]
	if !ok {
		if s.numSeriesLocked() >= s.maxSeries {
			s.dropCount.Inc()
			return
		}
		r = &ring{
			ts: make([]int64, 0, s.capacity),
			vs: make([]float64, 0, s.capacity),
		}
		s.scalars[name] = r
	}
	r.ts = append(r.ts, ts)
	r.vs = append(r.vs, v)
}

// appendHistLocked stores the histogram's cumulative buckets and
// synthesizes the _count scalar plus the rolling-window quantiles.
func (s *Store) appendHistLocked(name string, hv *obs.HistogramValue, ts int64) {
	if hv == nil {
		return
	}
	h, ok := s.hists[name]
	if !ok {
		if s.numSeriesLocked() >= s.maxSeries {
			s.dropCount.Inc()
			return
		}
		h = &histRing{bounds: hv.Bounds}
		s.hists[name] = h
	}
	cum := append([]int64(nil), hv.Cum...)
	h.ts = append(h.ts, ts)
	h.cums = append(h.cums, cum)

	s.appendScalarLocked(suffixed(name, "_count"), ts, float64(hv.Count))
	from := ts - quantileWindow.Milliseconds()
	base := h.baseAt(from)
	delta := make([]int64, len(cum))
	for i := range cum {
		delta[i] = cum[i]
		if base != nil {
			delta[i] -= base[i]
		}
	}
	for _, q := range quantiles {
		s.appendScalarLocked(suffixed(name, quantileSuffix(q)), ts,
			obs.QuantileFromBuckets(h.bounds, delta, q))
	}
}

// baseAt returns the newest snapshot at or before the cutoff, or the
// oldest available one; nil with no history.
func (h *histRing) baseAt(cutoff int64) []int64 {
	var base []int64
	for i, t := range h.ts {
		if t > cutoff {
			break
		}
		base = append([]int64(nil), h.cums[i]...)
		_ = i
	}
	if base == nil && len(h.cums) > 0 {
		// No snapshot predates the cutoff; the window extends past the
		// data, so the delta is "everything observed so far".
		return make([]int64, len(h.cums[0]))
	}
	return base
}

// suffixed appends a suffix to a series name, before the label braces
// when present: fednet_rpc_seconds{op="x"} + _p99 →
// fednet_rpc_seconds_p99{op="x"}.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// quantileSuffix renders 0.5 → "_p50", 0.99 → "_p99", 0.999 → "_p999".
func quantileSuffix(q float64) string {
	s := fmt.Sprintf("%g", q*100)
	s = strings.ReplaceAll(s, ".", "")
	return "_p" + s
}

func (s *Store) numSeriesLocked() int { return len(s.scalars) + len(s.hists) }

// NumSeries returns the stored series count (scalar rings plus
// histogram rings). Nil-safe.
func (s *Store) NumSeries() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numSeriesLocked()
}

// SeriesNames returns every stored scalar series name, sorted.
// Nil-safe.
func (s *Store) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.scalars))
	for name := range s.scalars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Match reports whether name matches pattern: exact match, or glob
// with '*' wildcards (any substring).
func Match(pattern, name string) bool {
	if !strings.Contains(pattern, "*") {
		return pattern == name
	}
	parts := strings.Split(pattern, "*")
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(name, part)
		if i < 0 {
			return false
		}
		name = name[i+len(part):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

// Query returns every scalar series matching one of the patterns
// (exact names or '*' globs), restricted to points in [from, to] unix
// milliseconds; from/to of 0 mean unbounded. Results are sorted by
// name. Nil-safe (returns nil).
func (s *Store) Query(patterns []string, from, to int64) []SeriesData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SeriesData
	for name, r := range s.scalars {
		matched := false
		for _, p := range patterns {
			if Match(p, name) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		sd := SeriesData{Name: name}
		for i, t := range r.ts {
			if (from != 0 && t < from) || (to != 0 && t > to) {
				continue
			}
			sd.Points = append(sd.Points, Point{T: t, V: r.vs[i]})
		}
		out = append(out, sd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// span returns a ring's covered wall-clock in milliseconds.
func (r *ring) span() int64 {
	if len(r.ts) < 2 {
		return 0
	}
	return r.ts[len(r.ts)-1] - r.ts[0]
}
