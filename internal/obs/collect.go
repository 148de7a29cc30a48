package obs

import "sort"

// Collect is the structured scrape API the tsdb layer is built on: a
// point-in-time snapshot of every series with typed values, in
// deterministic order (family, then label set). Unlike Snapshot it
// exposes histogram buckets as parallel slices, so consumers can
// compute windowed deltas and quantiles without re-parsing maps.
//
// Collect holds the registry mutex only while copying the series list;
// instrument reads are lock-free atomics and GaugeFuncs run after the
// lock is released, so a slow scrape never blocks hot-path Inc/Observe.

// SeriesValue is one collected series.
type SeriesValue struct {
	// Name is the full series key, family{labels} or bare family.
	Name   string
	Family string
	Kind   string // "counter" | "gauge" | "histogram"
	// Value carries the counter or gauge value (0 for histograms).
	Value float64
	// Hist is set for histograms only.
	Hist *HistogramValue
}

// HistogramValue is a histogram snapshot: finite upper bounds plus
// cumulative counts (len(Bounds)+1, the +Inf bucket last).
type HistogramValue struct {
	Bounds []float64
	Cum    []int64
	Count  int64
	Sum    float64
}

// Collect returns every registered series' current value. It is the
// one walk of the registry: the exposition and Snapshot render from it.
// Nil-safe (returns nil).
func (r *Registry) Collect() []SeriesValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.byKey))
	for _, s := range r.byKey {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].labels < all[j].labels
	})
	out := make([]SeriesValue, 0, len(all))
	for _, s := range all {
		sv := SeriesValue{Name: seriesName(s.family, s.labels), Family: s.family, Kind: s.kind}
		switch {
		case s.c != nil:
			sv.Value = float64(s.c.Value())
		case s.gf != nil:
			sv.Value = s.gf()
		case s.g != nil:
			sv.Value = s.g.Value()
		case s.h != nil:
			sv.Hist = &HistogramValue{
				Bounds: s.h.bounds,
				Cum:    s.h.snapshotBuckets(),
				Count:  s.h.Count(),
				Sum:    s.h.Sum(),
			}
		default:
			continue
		}
		out = append(out, sv)
	}
	return out
}
