package tsdb

import (
	"strings"
	"testing"
	"time"

	"middle/internal/obs"
)

// scrapeN drives n scrapes with a synthetic, strictly increasing clock
// (1s apart) so tests are deterministic and fast.
func scrapeN(s *Store, start time.Time, n int, between func(i int)) time.Time {
	t := start
	for i := 0; i < n; i++ {
		if between != nil {
			between(i)
		}
		s.scrapeAt(t)
		t = t.Add(time.Second)
	}
	return t
}

func TestScrapeAndQuery(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("work_total")
	g := r.Gauge("depth", "q", "a")
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	start := time.UnixMilli(1_000_000)
	scrapeN(s, start, 5, func(i int) {
		c.Add(2)
		g.Set(float64(i))
	})

	got := s.Query([]string{"work_total"}, 0, 0)
	if len(got) != 1 || len(got[0].Points) != 5 {
		t.Fatalf("query = %+v", got)
	}
	if got[0].Points[4].V != 10 {
		t.Fatalf("last counter sample = %g, want 10", got[0].Points[4].V)
	}
	// Glob match including label braces.
	if got := s.Query([]string{"depth{*"}, 0, 0); len(got) != 1 || got[0].Name != `depth{q="a"}` {
		t.Fatalf("glob query = %+v", got)
	}
	// Range restriction.
	from := start.Add(2 * time.Second).UnixMilli()
	if got := s.Query([]string{"work_total"}, from, 0); len(got[0].Points) != 3 {
		t.Fatalf("range query points = %d, want 3", len(got[0].Points))
	}
	if got := s.Query([]string{"nope"}, 0, 0); len(got) != 0 {
		t.Fatalf("unknown series query = %+v", got)
	}
}

func TestDownsamplingDoublesStride(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("work_total")
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	s.capacity = 8
	start := time.UnixMilli(1_000_000)
	scrapeN(s, start, 40, func(i int) { c.Inc() })

	got := s.Query([]string{"work_total"}, 0, 0)
	if len(got) != 1 {
		t.Fatalf("series count = %d", len(got))
	}
	pts := got[0].Points
	if len(pts) > 8 {
		t.Fatalf("ring exceeded capacity: %d points", len(pts))
	}
	if len(pts) < 3 {
		t.Fatalf("over-decimated: %d points", len(pts))
	}
	// Values stay monotone and span most of the run: downsampling drops
	// resolution, not history.
	for i := 1; i < len(pts); i++ {
		if pts[i].V <= pts[i-1].V || pts[i].T <= pts[i-1].T {
			t.Fatalf("non-monotone after decimation: %+v", pts)
		}
	}
	if first := pts[0].V; first > 20 {
		t.Fatalf("oldest retained point is too recent: %g", first)
	}
}

func TestHistogramSyntheticSeries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("rpc_seconds", []float64{1, 2, 4}, "op", "round")
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	start := time.UnixMilli(1_000_000)
	scrapeN(s, start, 3, func(i int) {
		for j := 0; j < 10; j++ {
			h.Observe(1.5)
		}
	})

	// Synthetic names carry the suffix before the label braces.
	for _, name := range []string{
		`rpc_seconds_count{op="round"}`,
		`rpc_seconds_p50{op="round"}`,
		`rpc_seconds_p99{op="round"}`,
	} {
		got := s.Query([]string{name}, 0, 0)
		if len(got) != 1 {
			t.Fatalf("missing synthetic series %s (have %v)", name, s.SeriesNames())
		}
	}
	p99 := s.Query([]string{`rpc_seconds_p99{op="round"}`}, 0, 0)[0].Points
	last := p99[len(p99)-1].V
	if last < 1 || last > 2 {
		t.Fatalf("p99 of all-1.5s observations = %g, want within (1,2]", last)
	}
}

func TestMaxSeriesDropsAndCounts(t *testing.T) {
	r := obs.NewRegistry()
	for i := 0; i < 30; i++ {
		r.Counter("many_total", "i", string(rune('a'+i)))
	}
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	s.maxSeries = 10
	s.scrapeAt(time.UnixMilli(1_000_000))
	if n := s.NumSeries(); n > 10 {
		t.Fatalf("stored %d series past maxSeries", n)
	}
	// The registry's tsdb_dropped_series_total counter recorded the rest.
	var dropped float64
	for _, sv := range r.Collect() {
		if sv.Name == "tsdb_dropped_series_total" {
			dropped = sv.Value
		}
	}
	if dropped == 0 {
		t.Fatal("tsdb_dropped_series_total not incremented")
	}
}

func TestReduceSemantics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("level")
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	// Pending before any data.
	if _, ok := s.Reduce("ops_total", "last", 0); ok {
		t.Fatal("reduce on empty store must be pending")
	}
	start := time.UnixMilli(1_000_000)
	vals := []float64{3, 1, 4, 1, 5}
	scrapeN(s, start, 5, func(i int) {
		c.Add(int64(i))
		g.Set(vals[i])
	})

	check := func(reducer string, window time.Duration, want float64) {
		t.Helper()
		v, ok := s.Reduce("level", reducer, window)
		if !ok || v != want {
			t.Fatalf("%s(level,%v) = %g/%v, want %g/true", reducer, window, v, ok, want)
		}
	}
	check("last", 0, 5)
	check("min", 0, 1)
	check("max", 0, 5)
	check("spread", 0, 4)
	check("avg", 0, (3+1+4+1+5)/5.0)

	// Counter samples: 0,1,3,6,10 → delta over all history = 10.
	if v, ok := s.Reduce("ops_total", "delta", 0); !ok || v != 10 {
		t.Fatalf("delta = %g/%v", v, ok)
	}
	if v, ok := s.Reduce("ops_total", "rate", 0); !ok || v != 10.0/4 {
		t.Fatalf("rate = %g/%v, want 2.5", v, ok)
	}
	// A window wider than the data span is pending, not zero.
	if _, ok := s.Reduce("level", "avg", time.Hour); ok {
		t.Fatal("window wider than data must be pending")
	}
	// Unknown series and unknown reducer are pending/invalid.
	if _, ok := s.Reduce("missing", "last", 0); ok {
		t.Fatal("unknown series must be pending")
	}
	if _, ok := s.Reduce("level", "bogus", 0); ok {
		t.Fatal("unknown reducer must not report ok")
	}
}

func TestReduceQuantileOverWindow(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 2, 4})
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	start := time.UnixMilli(1_000_000)
	// First 3 scrapes observe slow (3s), the last 3 fast (0.5s).
	scrapeN(s, start, 6, func(i int) {
		v := 3.0
		if i >= 3 {
			v = 0.5
		}
		for j := 0; j < 10; j++ {
			h.Observe(v)
		}
	})
	// Whole-history p99 sees the slow observations…
	vAll, ok := s.Reduce("lat_seconds", "p99", 0)
	if !ok || vAll < 2 {
		t.Fatalf("all-history p99 = %g/%v, want > 2", vAll, ok)
	}
	// …a 2s window sees only the fast tail.
	vWin, ok := s.Reduce("lat_seconds", "p99", 2*time.Second)
	if !ok || vWin > 1 {
		t.Fatalf("windowed p99 = %g/%v, want <= 1", vWin, ok)
	}
}

func TestWriteDumpShape(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("work_total").Add(5)
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	s.scrapeAt(time.UnixMilli(1_000_000))
	var sb strings.Builder
	if err := s.WriteDump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, `{"tsdb":1`) {
		t.Fatalf("dump must lead with the sniff tag: %s", out[:40])
	}
	series, err := ReadDump(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sd := range series {
		if sd.Name == "work_total" {
			found = true
			if len(sd.Points) != 1 || sd.Points[0].V != 5 {
				t.Fatalf("work_total points = %v", sd.Points)
			}
		}
	}
	if !found {
		t.Fatal("work_total missing from dump")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Start()
	s.Close()
	s.ScrapeOnce()
	if s.NumSeries() != 0 || s.SeriesNames() != nil || s.Query([]string{"*"}, 0, 0) != nil {
		t.Fatal("nil store leaked data")
	}
	if _, ok := s.Reduce("x", "last", 0); ok {
		t.Fatal("nil store reduce reported ok")
	}
	if err := s.WriteDump(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobMatching(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"a_total", "a_total", true},
		{"a_total", "a_total_x", false},
		{"*", "anything", true},
		{"a*", "a_total", true},
		{"*_total", "a_total", true},
		{"a*z", "abcz", true},
		{"a*z", "abc", false},
		{"robust_rejected_updates_total*", `robust_rejected_updates_total{reason="norm"}`, true},
		{"*p99*", `rpc_seconds_p99{op="x"}`, true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.name); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

// TestHotPathAllocFree pins the acceptance bar: with a store scraping
// the registry, hot-path Inc/Observe stay allocation-free, and the
// disabled (nil) store adds zero allocations anywhere it is threaded.
func TestHotPathAllocFree(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("hot_total")
	h := r.Histogram("hot_seconds", []float64{1, 2})
	s, err := New(Config{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	s.scrapeAt(time.UnixMilli(1_000_000))
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		h.Observe(0.5)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op with a live store", n)
	}
	var nilStore *Store
	if n := testing.AllocsPerRun(200, func() {
		nilStore.ScrapeOnce()
		nilStore.Close()
		_, _ = nilStore.Reduce("x", "last", 0)
	}); n != 0 {
		t.Fatalf("nil store allocates %v per op", n)
	}
}
