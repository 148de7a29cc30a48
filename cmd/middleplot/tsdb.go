package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"middle"
)

// isTSDBDump sniffs a tsdb dump file: Store.WriteDump always leads
// with {"tsdb" (the version tag is the first struct field).
func isTSDBDump(raw []byte) bool {
	return bytes.HasPrefix(bytes.TrimLeft(raw, " \t\r\n"), []byte(`{"tsdb"`))
}

// tsdbDump mirrors tsdb.Store.WriteDump's document shape. Points are
// [t,v] pairs; v may be null (non-finite), decoded as a nil entry.
type tsdbDump struct {
	TSDB       int   `json:"tsdb"`
	IntervalMS int64 `json:"interval_ms"`
	Series     []struct {
		Name   string       `json:"name"`
		Points [][]*float64 `json:"points"`
	} `json:"series"`
}

// defaultGroups are the standard chart groups rendered when -series is
// unset: one chart per group, series matched by glob.
var defaultGroups = []struct {
	title    string
	patterns []string
}{
	{"accuracy", []string{"hfl_global_accuracy"}},
	{"round duration p99 (s)", []string{"sim_round_seconds_p99", "fednet_rpc_seconds_p99*"}},
	{"faults and rejects", []string{"fednet_quorum_misses_total", "fednet_injected_faults_total*", "robust_rejected_updates_total*"}},
	{"mobility", []string{"sim_moves_total", "hfl_adversary_corruptions_total"}},
	{"memory (bytes)", []string{"process_peak_rss_bytes", "process_heap_inuse_bytes"}},
	{"series governance", []string{"obs_series", "tsdb_series", "obs_dropped_series_total*"}},
}

func plotTSDB(raw []byte, path, title, seriesGlobs string, width, height, smooth int) {
	var dump tsdbDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		fmt.Fprintf(os.Stderr, "middleplot: parsing %s: %v\n", path, err)
		os.Exit(1)
	}
	toSeries := func(patterns []string) []middle.Series {
		var out []middle.Series
		for _, sd := range dump.Series {
			matched := false
			for _, p := range patterns {
				if globMatch(p, sd.Name) {
					matched = true
					break
				}
			}
			if !matched || len(sd.Points) == 0 {
				continue
			}
			s := middle.Series{Name: sd.Name}
			t0 := int64(0)
			if len(sd.Points) > 0 && len(sd.Points[0]) == 2 && sd.Points[0][0] != nil {
				t0 = int64(*sd.Points[0][0])
			}
			for _, pt := range sd.Points {
				if len(pt) != 2 || pt[0] == nil || pt[1] == nil {
					continue
				}
				// X is seconds since the series' first sample.
				s.X = append(s.X, int((int64(*pt[0])-t0)/1000))
				s.Y = append(s.Y, *pt[1])
			}
			if len(s.X) > 0 {
				out = append(out, s)
			}
		}
		return out
	}
	plotted := 0
	if seriesGlobs != "" {
		patterns := strings.Split(seriesGlobs, ",")
		for i := range patterns {
			patterns[i] = strings.TrimSpace(patterns[i])
		}
		if sel := toSeries(patterns); len(sel) > 0 {
			fmt.Print(middle.LineChart(title+" (seconds since start)", smoothAll(sel, smooth), width, height))
			plotted++
		}
	} else {
		for _, g := range defaultGroups {
			if sel := toSeries(g.patterns); len(sel) > 0 {
				fmt.Print(middle.LineChart(title+": "+g.title+" (seconds since start)", smoothAll(sel, smooth), width, height))
				plotted++
			}
		}
	}
	if plotted == 0 {
		fmt.Fprintf(os.Stderr, "middleplot: no matching series in %s (%d stored; try -series '*')\n", path, len(dump.Series))
		os.Exit(1)
	}
}

// globMatch matches name against a pattern with '*' wildcards.
func globMatch(pattern, name string) bool {
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
