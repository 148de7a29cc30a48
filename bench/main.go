// Command bench is the repository's benchmark: four named workloads,
// nine bounded end-to-end metrics, the time and the rounds to the target
// accuracy and a per-layer ladder that say where a round's time and bytes
// go. See README.md in this directory.
//
//	go run ./bench                                   every workload, end to end and traced, with checks
//	go run ./bench -workload net_steady -seed 3      one workload, one seed, end-to-end metrics
//	go run ./bench -workload net_steady -trace 1     the traced run: per-layer metrics and a Chrome trace
//	go run ./bench -compare A.json B.json            two reports, row by row, against the bounds
//	go run ./bench -spec                             print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runSeconds is how long one run measures when nothing else is asked.
const runSeconds = 25

// outDir holds what a run leaves behind (reports, traces, run details).
// It is the directory the driver already sets aside for build output.
const outDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed; run i of -runs uses seed+i")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "with -workload: 0 end-to-end metrics, 1 the traced run's per-layer metrics")
		detail  = flag.String("detail", "", "with -workload: also write the run's full record to this file")
		runs    = flag.Int("runs", 1, "all-workloads mode: runs per workload; medians and quartiles are over them")
		out     = flag.String("out", filepath.Join(outDir, "report.json"), "all-workloads mode: where the report goes")
		check   = flag.Bool("check", true, "exit non-zero unless every workload's outputs are correct")
		compare = flag.Bool("compare", false, "compare two reports: -compare BASE.json CHANGE.json")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *spec:
		err = printSpec()
	case *compare:
		err = runCompare(flag.Args())
	case *name != "":
		err = runOne(*name, *seed, window, *trace == 1, *detail)
	default:
		err = runAll(*seed, *seconds, *runs, *out, *check)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchmarkSpec is BENCHMARK.json.
func benchmarkSpec() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, m := range perLayer {
		layers = append(layers, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}
}

func printSpec() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(benchmarkSpec())
}

// measure runs a workload once, traced or not.
func measure(w *workload, seed int64, window time.Duration, rec *recorder, registry bool) *measured {
	if w.net {
		return runNet(w, seed, window, rec, registry)
	}
	return runSim(w, seed, window, rec)
}

// traceOnce makes the traced run of a workload: the same work with
// tracing off and then on, half the window each, and the isolated
// rungs. Neither half waits for a target; their job is one round.
func traceOnce(w *workload, seed int64, window time.Duration) (*runDetail, []span) {
	half := *w
	half.fixedRounds, half.hashPrefix, half.setupRuns = 1, 0, 1
	pure := measure(&half, seed, window/2, nil, false)
	rec := newRecorder(fmt.Sprintf("%s-seed%d", w.name, seed))
	traced := measure(&half, seed, window/2, rec, true)
	spans := rec.snapshot()
	return tracedDetail(w, seed, window, pure, traced, spans, measureRungs(w, seed)), spans
}

// runOne is the mode the driver uses: one workload, one seed, in this
// process. The last line of standard output is the contract object.
func runOne(name string, seed int64, window time.Duration, traced bool, detailPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var d *runDetail
	if traced {
		var spans []span
		d, spans = traceOnce(w, seed, window)
		d.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeTraceFile(d.TraceFile, d.Workload, spans); err != nil {
			return err
		}
	} else {
		d = e2eDetail(w, seed, window, measure(w, seed, window, nil, true))
	}
	d.print(os.Stdout)
	if detailPath != "" {
		if err := writeJSONFile(detailPath, d); err != nil {
			return err
		}
	}
	line, err := d.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func writeTraceFile(path, runID string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, runID, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload end to end and traced, each run in a child
// process of its own so that memory and allocation numbers are per
// workload, then prints and stores the report.
func runAll(seed int64, seconds float64, runs int, out string, check bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rep := &report{Env: readEnvironment(), Seed: seed, Runs: runs, Seconds: seconds}
	for _, w := range workloads {
		wr := &workloadReport{Name: w.name, Why: w.why, Correct: true, Metrics: map[string]*summary{}}
		rep.Workloads = append(rep.Workloads, wr)
		for i := 0; i < runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d\n", w.name, seed+int64(i), trace)
				path := filepath.Join(outDir, fmt.Sprintf("detail-%s-%d.json", w.name, trace))
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-detail", path)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				var d runDetail
				if err := readJSONFile(path, &d); err != nil {
					return err
				}
				wr.add(&d)
			}
		}
	}
	rep.print(os.Stdout)
	if err := writeJSONFile(out, rep); err != nil {
		return err
	}
	fmt.Println("report written to", out)
	if check {
		for _, wr := range rep.Workloads {
			if !wr.Correct {
				return fmt.Errorf("check failed on %s", wr.Name)
			}
		}
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files, got %d", len(args))
	}
	var base, change report
	if err := readJSONFile(args[0], &base); err != nil {
		return err
	}
	if err := readJSONFile(args[1], &change); err != nil {
		return err
	}
	if worse := compareReports(os.Stdout, &base, &change); worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are worse than their bound allows", worse)
	}
	return nil
}
