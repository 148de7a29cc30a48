package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by family then label set so
// output is deterministic. Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	family := ""
	for _, sv := range r.Collect() {
		if sv.Family != family {
			family = sv.Family
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, sv.Kind)
		}
		switch h := sv.Hist; {
		case h != nil:
			labels := labelsOf(sv)
			for i, bound := range h.Bounds {
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", family, labelsPlus(labels, `le="`+formatFloat(bound)+`"`), h.Cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", family, labelsPlus(labels, `le="+Inf"`), h.Cum[len(h.Cum)-1])
			fmt.Fprintf(&b, "%s_sum%s %s\n", family, sv.Name[len(family):], formatFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", family, sv.Name[len(family):], h.Count)
		case sv.Kind == kindCounter:
			fmt.Fprintf(&b, "%s %d\n", sv.Name, int64(sv.Value))
		default:
			fmt.Fprintf(&b, "%s %s\n", sv.Name, formatFloat(sv.Value))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonValue makes a float safe for encoding/json, which rejects
// non-finite numbers: +Inf, -Inf and NaN become their exposition-format
// strings. The Prometheus text path needs no such guard (formatFloat
// already renders "+Inf"/"NaN" per the format).
func jsonValue(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return formatFloat(v)
	}
	return v
}

// labelsOf returns a collected series' rendered label set ("" for none).
func labelsOf(sv SeriesValue) string {
	if braced := sv.Name[len(sv.Family):]; braced != "" {
		return braced[1 : len(braced)-1]
	}
	return ""
}

// labelsPlus appends one extra label pair to an existing rendered set.
func labelsPlus(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// Snapshot returns every series' current value as a plain map suitable
// for JSON encoding: counters and gauges map to numbers, histograms to
// {count, sum, buckets: {le: cumulative}}. Nil-safe (returns nil).
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]any{}
	for _, sv := range r.Collect() {
		switch h := sv.Hist; {
		case h != nil:
			buckets := map[string]int64{}
			for i, bound := range h.Bounds {
				buckets[formatFloat(bound)] = h.Cum[i]
			}
			buckets["+Inf"] = h.Cum[len(h.Cum)-1]
			out[sv.Name] = map[string]any{"count": h.Count, "sum": jsonValue(h.Sum), "buckets": buckets}
		case sv.Kind == kindCounter:
			out[sv.Name] = int64(sv.Value)
		default:
			out[sv.Name] = jsonValue(sv.Value)
		}
	}
	return out
}
