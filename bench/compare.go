package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of two sets of runs of one end-to-end
// metric. The change is worse when its median moved in the wrong
// direction by more than bound × the base's median. When either set's
// own interquartile spread is wider than the bound the row is
// unresolved, not ok — unless every run of the change reads better than
// every run of the base.
func judge(m metric, base, change *summary) (ratio float64, verdict string) {
	ratio = math.NaN()
	if base.Median != 0 {
		ratio = change.Median / base.Median
	}
	worsening := change.Median - base.Median
	if m.Better == higher {
		worsening = -worsening
	}
	noisy := spreadShare(base.Values) > m.Bound || spreadShare(change.Values) > m.Bound
	switch {
	case noisy && !allBetter(m, base.Values, change.Values):
		return ratio, verdictUnresolved
	case worsening > m.Bound*math.Abs(base.Median):
		return ratio, verdictWorse
	}
	return ratio, verdictOK
}

// allBetter reports whether every run of the change beats every run of
// the base.
func allBetter(m metric, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if (m.Better == lower && c >= b) || (m.Better == higher && c <= b) {
				return false
			}
		}
	}
	return true
}

// compareReports prints one row per (metric, workload) of the two
// reports and returns how many rows are worse.
func compareReports(w io.Writer, base, change *report) (worse int) {
	fmt.Fprintf(w, "base   %s (%d runs)\nchange %s (%d runs)\n\n", base.Env.Commit, base.Runs, change.Env.Commit, change.Runs)
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "change", "ratio", "bound", "verdict")
	for _, bw := range base.Workloads {
		var cw *workloadReport
		for _, c := range change.Workloads {
			if c.Name == bw.Name {
				cw = c
			}
		}
		if cw == nil {
			continue
		}
		for _, m := range endToEnd {
			b, c := bw.Metrics[m.Name], cw.Metrics[m.Name]
			if b == nil || c == nil {
				continue
			}
			ratio, verdict := judge(m, b, c)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %8.3f %6.2f  %s\n",
				bw.Name, m.Name, b.Median, c.Median, ratio, m.Bound, verdict)
		}
	}
	return worse
}
