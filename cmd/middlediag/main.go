// Command middlediag reads a postmortem bundle written by the flight
// recorder (internal/obs/flight) and prints a root-cause report: which
// SLO rules fired and when, where the CPU and allocations went by
// phase, which series moved the most, the fault/retry/reject counters,
// and a goroutine-leak heuristic over the captured stacks.
//
//	middlediag flight/                       # latest bundle under a flight dir
//	middlediag flight/bundle-20260808T...    # a specific bundle
//	middlediag -top 10 flight/
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"middle/internal/obs/flight"
	"middle/internal/obs/tsdb"
)

func main() {
	top := flag.Int("top", 5, "entries per ranked section")
	leak := flag.Int("leak-threshold", 20, "goroutine-group size flagged as a possible leak")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: middlediag [-top N] <bundle-dir | flight-dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir, err := resolveBundle(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}

	report(os.Stdout, dir, *top, *leak)
}

// report writes the whole root-cause report for one bundle directory.
func report(w io.Writer, dir string, top, leak int) {
	fmt.Fprintf(w, "middlediag: %s\n", dir)
	reportManifest(w, dir)
	reportSLO(w, dir)
	reportCPU(w, dir, top)
	reportProfileSeries(w, dir, top)
	reportHotSeries(w, dir, top)
	reportFaults(w, dir)
	reportMigrations(w, dir)
	reportMembership(w, dir)
	reportGoroutines(w, dir, top, leak)
}

// resolveBundle accepts either a bundle directory or a flight directory
// containing bundle-* subdirectories (latest wins).
func resolveBundle(path string) (string, error) {
	if _, err := os.Stat(filepath.Join(path, "manifest.json")); err == nil {
		return path, nil
	}
	bundles, err := flight.Bundles(path)
	if err != nil {
		return "", fmt.Errorf("reading %s: %w", path, err)
	}
	if len(bundles) == 0 {
		return "", fmt.Errorf("%s holds no completed bundles", path)
	}
	return bundles[len(bundles)-1], nil
}

// readJSON decodes one bundle file into out; missing files are not an
// error (bundles omit files whose source was not wired).
func readJSON(dir, file string, out any) bool {
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

func section(w io.Writer, name string) { fmt.Fprintf(w, "\n== %s ==\n", name) }

func reportManifest(w io.Writer, dir string) {
	var m struct {
		Reason     string `json:"reason"`
		CapturedAt string `json:"captured_at"`
		Manifest   struct {
			Name    string   `json:"name"`
			Command []string `json:"command"`
			Build   struct {
				GoVersion   string `json:"go_version"`
				VCSRevision string `json:"vcs_revision"`
				VCSTime     string `json:"vcs_time"`
			} `json:"build"`
		} `json:"manifest"`
		Errors []string `json:"errors"`
	}
	if !readJSON(dir, "manifest.json", &m) {
		fmt.Fprintln(w, "capture: no manifest.json (incomplete bundle?)")
		return
	}
	section(w, "capture")
	fmt.Fprintf(w, "reason:   %s\n", m.Reason)
	fmt.Fprintf(w, "captured: %s\n", m.CapturedAt)
	if m.Manifest.Name != "" {
		fmt.Fprintf(w, "run:      %s\n", m.Manifest.Name)
	}
	if b := m.Manifest.Build; b.GoVersion != "" || b.VCSRevision != "" {
		rev := b.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(w, "build:    %s %s %s\n", b.GoVersion, rev, b.VCSTime)
	}
	for _, e := range m.Errors {
		fmt.Fprintf(w, "capture error: %s\n", e)
	}
}

func reportSLO(w io.Writer, dir string) {
	var s struct {
		Alerts []struct {
			Name   string  `json:"name"`
			State  string  `json:"state"`
			Value  float64 `json:"value"`
			Detail string  `json:"detail"`
			Since  int64   `json:"since"`
		} `json:"alerts"`
		Breached []string `json:"breached"`
	}
	if !readJSON(dir, "slo.json", &s) {
		return
	}
	section(w, "slo")
	if len(s.Breached) == 0 {
		fmt.Fprintln(w, "no rules breached")
	} else {
		fmt.Fprintf(w, "breached: %s\n", strings.Join(s.Breached, ", "))
	}
	for _, a := range s.Alerts {
		if a.State == "ok" {
			continue
		}
		line := fmt.Sprintf("%-8s %s", a.State, a.Name)
		if a.Detail != "" {
			line += "  (" + a.Detail + ")"
		}
		if ts := fmtUnixMS(a.Since); ts != "" {
			line += "  since " + ts
		}
		fmt.Fprintln(w, line)
	}
	// Breach moments from the event ring, the "when" to slo.json's "what".
	for _, ev := range readEvents(dir) {
		if ev["event"] == "slo_breach" {
			fmt.Fprintf(w, "breach:   rule=%v at %v\n", ev["rule"], ev["ts"])
		}
	}
}

// readEvents parses the bundle's JSONL event ring (nil when absent).
func readEvents(dir string) []map[string]any {
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if json.Unmarshal(sc.Bytes(), &ev) == nil {
			out = append(out, ev)
		}
	}
	return out
}

func reportCPU(w io.Writer, dir string, top int) {
	data, err := os.ReadFile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return
	}
	prof, err := flight.ParseCPUProfile(data)
	if err != nil {
		section(w, "cpu by phase")
		fmt.Fprintf(w, "cpu.pprof unparsable: %v\n", err)
		return
	}
	section(w, "cpu by phase (bundle cpu.pprof window)")
	if prof.TotalNanos == 0 {
		fmt.Fprintln(w, "profile window captured no samples (idle process)")
		return
	}
	type pc struct {
		phase string
		nanos int64
	}
	var phases []pc
	for p, ns := range prof.Phases {
		phases = append(phases, pc{p, ns})
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].nanos > phases[j].nanos })
	for i, p := range phases {
		if i >= top {
			break
		}
		fmt.Fprintf(w, "%-16s %8.3fs  %5.1f%%\n", p.phase,
			float64(p.nanos)/1e9, 100*float64(p.nanos)/float64(prof.TotalNanos))
	}
	fmt.Fprintf(w, "%-16s %8.3fs\n", "total", float64(prof.TotalNanos)/1e9)
}

// loadDump reads the bundle's tsdb history (false when absent or empty).
func loadDump(dir string) ([]tsdb.SeriesData, bool) {
	f, err := os.Open(filepath.Join(dir, "tsdb.json"))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	d, err := tsdb.ReadDump(f)
	return d, err == nil && len(d) > 0
}

// lastValue returns a series' most recent non-NaN point.
func lastValue(points []tsdb.Point) (float64, bool) {
	for i := len(points) - 1; i >= 0; i-- {
		if !math.IsNaN(points[i].V) {
			return points[i].V, true
		}
	}
	return 0, false
}

// reportProfileSeries ranks the continuous profiler's cumulative
// attribution series — the whole-run view complementing the bundle's
// single CPU window.
func reportProfileSeries(w io.Writer, dir string, top int) {
	d, ok := loadDump(dir)
	if !ok {
		return
	}
	type row struct {
		phase string
		v     float64
	}
	collect := func(family string) []row {
		var rows []row
		prefix := family + `{phase="`
		for _, s := range d {
			if !strings.HasPrefix(s.Name, prefix) {
				continue
			}
			phase := strings.TrimSuffix(strings.TrimPrefix(s.Name, prefix), `"}`)
			if v, ok := lastValue(s.Points); ok && v > 0 {
				rows = append(rows, row{phase, v})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
		if len(rows) > top {
			rows = rows[:top]
		}
		return rows
	}
	cpu := collect("profile_cpu_seconds_total")
	alloc := collect("profile_alloc_bytes_total")
	if len(cpu) == 0 && len(alloc) == 0 {
		return
	}
	section(w, "profiler attribution (cumulative over run)")
	for _, r := range cpu {
		fmt.Fprintf(w, "cpu   %-16s %10.3fs\n", r.phase, r.v)
	}
	for _, r := range alloc {
		fmt.Fprintf(w, "alloc %-16s %10s\n", r.phase, fmtBytes(r.v))
	}
}

// reportHotSeries ranks series by spread (max-min over the retained
// window) — the cheapest "what moved" signal in a dump.
func reportHotSeries(w io.Writer, dir string, top int) {
	d, ok := loadDump(dir)
	if !ok {
		return
	}
	type row struct {
		name   string
		spread float64
	}
	var rows []row
	for _, s := range d {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range s.Points {
			if math.IsNaN(p.V) {
				continue
			}
			lo, hi = math.Min(lo, p.V), math.Max(hi, p.V)
		}
		if hi > lo && hi-lo > 0 {
			rows = append(rows, row{s.Name, hi - lo})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].spread > rows[j].spread })
	if len(rows) == 0 {
		return
	}
	section(w, "hottest series by spread")
	for i, r := range rows {
		if i >= top {
			break
		}
		fmt.Fprintf(w, "%-48s %g\n", r.name, r.spread)
	}
}

// faultPattern matches the counters that explain degraded runs:
// retries, timeouts, drops, corrupt frames, quorum misses, straggler
// exclusions, robust-aggregation rejections and non-finite steps.
var faultPattern = regexp.MustCompile(`^(fednet|hfl|robust)_.*(retries|timeouts|corrupt|drops|reconnects|quorum|stragglers|rejected|trimmed|nonfinite)`)

func reportFaults(w io.Writer, dir string) {
	d, ok := loadDump(dir)
	if !ok {
		return
	}
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for _, s := range d {
		if !faultPattern.MatchString(s.Name) {
			continue
		}
		if v, ok := lastValue(s.Points); ok && v > 0 {
			rows = append(rows, row{s.Name, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	section(w, "fault / retry / reject counters")
	if len(rows) == 0 {
		fmt.Fprintln(w, "all zero — a clean run")
		return
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %g\n", r.name, r.v)
	}
}

// migrationPattern matches the live-migration telemetry: the arrival
// outcome counters, the stranded-device gauge, the move-retry counter and
// the synthesized quantiles of a move's leave-to-ack latency.
var migrationPattern = regexp.MustCompile(`^fednet_(migrations_total|stranded_devices|move_retries_total|handover_seconds)`)

// reportMigrations summarizes the moves of a run: how many movers arrived
// warm vs cold or had their carried model refused, whether any device
// ended up stranded, and how long warm moves took. Quiet when
// live migration never ran — the section only appears once a migration
// series exists.
func reportMigrations(w io.Writer, dir string) {
	d, ok := loadDump(dir)
	if !ok {
		return
	}
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for _, s := range d {
		if !migrationPattern.MatchString(s.Name) {
			continue
		}
		if v, ok := lastValue(s.Points); ok {
			rows = append(rows, row{s.Name, v})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	section(w, "live migration")
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %g\n", r.name, r.v)
	}
}

// membershipPattern matches the self-healing telemetry: the membership
// epoch gauge, failover/re-home counters, lease-miss and stale-frame
// fencing counters, the stranded-device gauge and the synthesized
// failover latency quantiles.
var membershipPattern = regexp.MustCompile(`^fednet_(membership_epoch|edge_failovers_total|rehomed_devices_total|lease_misses_total|stale_frames_total|stranded_devices|failover_seconds)`)

// reportMembership summarizes the self-healing story of a run: how many
// edges died and were failed over, how many devices were re-homed vs
// left stranded, where the membership epoch ended up, and how much
// stale traffic the epoch fence rejected. Quiet for a run without a
// fednet cloud (the simulator's): the section only appears once a
// membership series exists.
func reportMembership(w io.Writer, dir string) {
	d, ok := loadDump(dir)
	if !ok {
		return
	}
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for _, s := range d {
		if !membershipPattern.MatchString(s.Name) {
			continue
		}
		if v, ok := lastValue(s.Points); ok {
			rows = append(rows, row{s.Name, v})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	section(w, "membership / self-healing")
	stranded := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-48s %g\n", r.name, r.v)
		if r.name == "fednet_stranded_devices" {
			stranded = r.v
		}
	}
	if stranded > 0 {
		fmt.Fprintf(w, "WARNING: %g devices ended the run stranded (no reachable edge)\n", stranded)
	}
}

// reportGoroutines groups the captured stacks by creation site (top
// frame when the root goroutine has none) and flags unusually large
// groups — the standard leak signature is many goroutines parked at
// one site.
func reportGoroutines(w io.Writer, dir string, top, leakThreshold int) {
	data, err := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return
	}
	type group struct {
		key   string
		count int
	}
	counts := map[string]int{}
	total := 0
	for _, block := range strings.Split(string(data), "\n\n") {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "goroutine ") {
			continue
		}
		total++
		state := ""
		if i := strings.Index(lines[0], "["); i >= 0 {
			state = strings.TrimSuffix(lines[0][i+1:], "]:")
			// Strip wait durations ("chan receive, 5 minutes").
			if j := strings.Index(state, ","); j >= 0 {
				state = state[:j]
			}
		}
		site := ""
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, "created by ") {
				site = strings.TrimPrefix(l, "created by ")
				if j := strings.Index(site, " in goroutine"); j >= 0 {
					site = site[:j]
				}
				break
			}
		}
		if site == "" && len(lines) > 1 {
			site = strings.TrimSuffix(lines[1], "(...)")
			if j := strings.Index(site, "("); j >= 0 {
				site = site[:j]
			}
		}
		counts[fmt.Sprintf("%s [%s]", site, state)]++
	}
	var groups []group
	for k, c := range counts {
		groups = append(groups, group{k, c})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].count > groups[j].count })
	section(w, "goroutines")
	fmt.Fprintf(w, "total: %d\n", total)
	for i, g := range groups {
		if i >= top {
			break
		}
		flag := ""
		if g.count >= leakThreshold {
			flag = "  << possible leak"
		}
		fmt.Fprintf(w, "%4d  %s%s\n", g.count, g.key, flag)
	}
}

func fmtUnixMS(ms int64) string {
	if ms == 0 {
		return ""
	}
	return time.UnixMilli(ms).UTC().Format(time.RFC3339)
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "middlediag: "+format+"\n", args...)
	os.Exit(1)
}
