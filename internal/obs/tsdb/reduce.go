package tsdb

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"middle/internal/obs"
)

// Reduce folds one series' recent window into a scalar — the evaluation
// primitive the SLO engine is built on.
//
// reducer is one of:
//
//	last    newest point's value
//	avg     mean over the window
//	min,max extremes over the window
//	spread  max-min over the window (progress detector)
//	delta   newest-oldest over the window (counter movement)
//	rate    delta divided by the window's covered seconds
//	pNN     rolling quantile over a histogram's bucket deltas
//	        (p50, p99, p999, …; series names the histogram)
//
// The second return is false while the answer is still "pending": the
// series is unknown, the stored data spans less than the window (for
// windowed reducers), or fewer than two points exist for delta-family
// reducers. Callers treat pending as "not yet breachable", so rules
// with long windows don't fire spuriously at startup. A window of 0
// means "all retained history" and is never pending for data-span
// reasons.
//
// series may be a '*' glob; each match reduces independently and the
// maximum is returned (ok if any match is sufficient) — the
// conservative fold for "worst offender" style rules.
func (s *Store) Reduce(series, reducer string, window time.Duration) (float64, bool) {
	if s == nil {
		return 0, false
	}
	if strings.HasPrefix(reducer, "p") {
		if q, err := parseQuantile(reducer); err == nil {
			return s.reduceQuantile(series, q, window)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := 0.0, false
	for name, r := range s.scalars {
		if !Match(series, name) {
			continue
		}
		v, vok := reduceRing(r, reducer, window)
		if !vok {
			continue
		}
		if !ok || v > best {
			best = v
		}
		ok = true
	}
	return best, ok
}

// parseQuantile turns "p99" into 0.99, "p999" into 0.999, "p50" into
// 0.5: digits after 'p' are read as a decimal fraction times 100.
func parseQuantile(reducer string) (float64, error) {
	digits := reducer[1:]
	if digits == "" {
		return 0, fmt.Errorf("tsdb: bad quantile reducer %q", reducer)
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("tsdb: bad quantile reducer %q", reducer)
	}
	q := float64(n)
	for i := 0; i < len(digits); i++ {
		q /= 10
	}
	return q, nil // p99 → 99/100 = 0.99, p999 → 999/1000 = 0.999
}

// reduceQuantile computes a quantile over a histogram ring's bucket
// deltas across the window. Pending until the stored snapshots span
// the window (window 0 = all history, needs ≥1 snapshot).
func (s *Store) reduceQuantile(series string, q float64, window time.Duration) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := 0.0, false
	for name, h := range s.hists {
		if !Match(series, name) || len(h.ts) == 0 {
			continue
		}
		newest := len(h.ts) - 1
		if window > 0 && h.ts[newest]-h.ts[0] < window.Milliseconds() {
			continue
		}
		base := make([]int64, len(h.cums[newest]))
		if window > 0 {
			cutoff := h.ts[newest] - window.Milliseconds()
			for i := 0; i <= newest; i++ {
				if h.ts[i] > cutoff {
					break
				}
				copy(base, h.cums[i])
			}
		}
		delta := make([]int64, len(h.cums[newest]))
		for i := range delta {
			delta[i] = h.cums[newest][i] - base[i]
		}
		v := 0.0
		if delta[len(delta)-1] > 0 {
			v = obs.QuantileFromBuckets(h.bounds, delta, q)
		}
		if !ok || v > best {
			best = v
		}
		ok = true
	}
	return best, ok
}

func reduceRing(r *ring, reducer string, window time.Duration) (float64, bool) {
	if len(r.ts) == 0 {
		return 0, false
	}
	newest := len(r.ts) - 1
	if window > 0 && r.span() < window.Milliseconds() {
		return 0, false
	}
	lo := 0
	if window > 0 {
		cutoff := r.ts[newest] - window.Milliseconds()
		for lo < newest && r.ts[lo+1] <= cutoff {
			lo++
		}
	}
	switch reducer {
	case "last":
		return r.vs[newest], true
	case "avg":
		sum := 0.0
		for i := lo; i <= newest; i++ {
			sum += r.vs[i]
		}
		return sum / float64(newest-lo+1), true
	case "min", "max", "spread":
		mn, mx := r.vs[lo], r.vs[lo]
		for i := lo + 1; i <= newest; i++ {
			if r.vs[i] < mn {
				mn = r.vs[i]
			}
			if r.vs[i] > mx {
				mx = r.vs[i]
			}
		}
		switch reducer {
		case "min":
			return mn, true
		case "max":
			return mx, true
		}
		return mx - mn, true
	case "delta", "rate":
		if newest == lo {
			return 0, false
		}
		d := r.vs[newest] - r.vs[lo]
		if reducer == "delta" {
			return d, true
		}
		secs := float64(r.ts[newest]-r.ts[lo]) / 1000
		if secs <= 0 {
			return 0, false
		}
		return d / secs, true
	}
	return 0, false
}
