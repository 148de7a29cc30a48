// Command middlesim reproduces the MIDDLE paper's experiments from the
// command line. Every figure of the evaluation has a runner:
//
//	middlesim -exp fig1                 # §2 motivation: Non-IID across edges
//	middlesim -exp fig2                 # §2 motivation: on-device aggregation
//	middlesim -exp fig6 -task mnist     # §6.2.1 time-to-accuracy + speedups
//	middlesim -exp fig7 -task mnist     # §6.2.2 global-mobility sweep
//	middlesim -exp fig8 -task mnist     # §6.2.3 edge-cloud interval sweep
//	middlesim -exp theory               # §5 Theorem 1 / Remark 1 validation
//	middlesim -exp run -task mnist -strategy MIDDLE   # one ad-hoc run
//	middlesim -exp scale -devices 1000000 -edges 1000 -resident-cap 4096
//	                                    # population-scale run, cohort-bounded memory
//
// -scale fast (default) finishes in seconds to minutes; -scale paper uses
// the paper's §6.1.2 topology and horizons. -csv DIR additionally writes
// the series data for external plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"middle"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/obs"
	"middle/internal/obs/flight"
)

func main() {
	var (
		exp        = flag.String("exp", "fig6", "experiment: fig1|fig2|fig6|fig7|fig8|ablation|mobmodels|theory|run|scale|all")
		task       = flag.String("task", "mnist", "task: mnist|emnist|cifar10|speech|all")
		scaleFlag  = flag.String("scale", "fast", "scale: fast|paper")
		seed       = flag.Int64("seed", 1, "root random seed")
		p          = flag.Float64("p", 0.5, "global mobility P")
		steps      = flag.Int("steps", 0, "time-step horizon override (0 = scale default)")
		strategy   = flag.String("strategy", "MIDDLE", "strategy for -exp run")
		strategies = flag.String("strategies", "", "comma-separated strategy subset (default: paper set)")
		csvDir     = flag.String("csv", "", "directory to write CSV series into")
		smooth     = flag.Int("smooth", 1, "smoothing window for printed curves")
		seeds      = flag.Int("seeds", 1, "number of seeds to average (fig6 only)")
		saveModel  = flag.String("savemodel", "", "write the final global model checkpoint here (-exp run only)")
		maddr      = flag.String("metrics-addr", "", "serve /metrics, /status, /dashboard, /api/query and /debug/pprof on this address (empty = disabled)")
		results    = flag.String("results", "", "directory for the run summary JSON (empty = disabled)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of every round's phase spans here (load in Perfetto)")
		telemOut   = flag.String("telemetry-out", "", "write the per-round/per-eval learning-dynamics JSONL stream here")
		tsdbIntv   = flag.Duration("tsdb-interval", 0, "embedded time-series store scrape interval (0 = 1s when -metrics-addr or -slo is set, else disabled)")
		tsdbOut    = flag.String("tsdb-out", "", "write the tsdb's full history as JSON at exit (middleplot renders it)")
		sloRules   = flag.String("slo", "", "SLO rules to gate the run on (\"default\" or \"name: reducer(series[,window]) op threshold; ...\"); any breach exits non-zero")
		flightDir  = flag.String("flight-dir", "", "arm the flight recorder: postmortem bundles (profiles, tsdb dump, event ring, SLO state) land here on SLO breach, panic, SIGQUIT/SIGUSR1 or fatal exit")
		profIntv   = flag.Duration("profile-interval", 0, "continuous-profiler CPU window length; publishes profile_cpu_seconds_total{phase} / profile_alloc_bytes_total{phase} (0 = disabled)")

		// Simulated robustness knobs (-exp run only; defaults keep runs
		// bit-identical to the fault-free engine).
		quorum    = flag.Int("quorum", 0, "-exp run: minimum surviving responders per edge-step before Eq. 6 applies (0 = off)")
		dropRate  = flag.Float64("drop-rate", 0, "-exp run: probability a selected device's round-trip is lost")
		faultSeed = flag.Int64("fault-seed", 0, "-exp run: seed for the deterministic simulated drops")

		// Live migration (-exp run mirrors fednet's handover in the
		// simulator; -exp scale with -shards/-mux enables it on the
		// in-process deployment).
		liveMig     = flag.Bool("live-migration", false, "stateful handover on mobility steps: -exp run mirrors it in the simulator, -exp scale enables it on the fednet deployment")
		migFailRate = flag.Float64("migration-fail-rate", 0, "-exp run: probability a handover is lost in transit and the mover falls back to drop-and-reconnect (requires -live-migration)")

		// Self-healing membership (-exp run/scale mirror fednet's failure
		// detector + failover in the simulator; -exp scale with
		// -shards/-mux enables the real lease-based detector on the
		// in-process deployment).
		selfHeal       = flag.Bool("self-healing", false, "simulate edge crashes with automatic device re-homing: -exp run and the -exp scale simulator path mirror fednet's failover in the simulator")
		edgeFailRate   = flag.Float64("edge-fail-rate", 0, "per-edge per-step crash probability for -self-healing (0 = no crashes)")
		edgeRecoverFor = flag.Int("edge-recover-steps", 0, "steps a crashed edge stays down before rejoining (0 = T_c)")
		membershipOn   = flag.Bool("membership", false, "-exp scale deployment (-shards/-mux): enable the lease-based failure detector and membership epochs on the in-process fednet cluster")

		// Byzantine-robustness knobs (-exp run only; defaults keep runs
		// bit-identical to the plain weighted-mean engine).
		aggName    = flag.String("aggregator", "", "-exp run: Eq. 6/Eq. 7 combination rule: mean|median|trimmed-mean|norm-clip (default mean)")
		trimFrac   = flag.Float64("trim-frac", 0, "-exp run: per-side trim fraction for -aggregator trimmed-mean (0 = default 0.2)")
		normBound  = flag.Float64("norm-bound", 0, "-exp run: reject updates with norm > c*median(cohort norms); also rejects NaN/Inf models (0 = off)")
		advFrac    = flag.Float64("adversary-fraction", 0, "-exp run: fraction of devices acting Byzantine (0 = off)")
		advMode    = flag.String("adversary-mode", "", "-exp run: adversary corruption: sign-flip|noise|same-value (default sign-flip)")
		advScale   = flag.Float64("adversary-scale", 0, "-exp run: adversary corruption magnitude (0 = 1)")
		advSeed    = flag.Int64("adversary-seed", 0, "-exp run: seed for deterministic adversary membership and corruption")
		selNormCap = flag.Float64("sel-norm-cap", 0, "-exp run: exclude devices with update norm above this from Eq. 12 selection (0 = off)")

		// Population-scale knobs (-exp scale only). The simulator path
		// (default) uses the lazy device store, so memory is bounded by
		// the cohort and the resident cap rather than -devices; -shards
		// and -mux instead run the in-process networked deployment.
		devicesN = flag.Int("devices", 0, "-exp scale: device population size (0 = task default)")
		edgesN   = flag.Int("edges", 0, "-exp scale: edge server count (0 = task default)")
		kSel     = flag.Int("k", 0, "-exp scale: devices selected per edge per step (0 = task default)")
		tcN      = flag.Int("tc", 0, "-exp scale: cloud aggregation interval T_c in steps (0 = task default)")
		resCap   = flag.Int("resident-cap", 0, "-exp scale: bound on materialized device models in the lazy store; must fit the full cohort k×edges (0 = unbounded)")
		shardsN  = flag.Int("shards", 1, "-exp scale: cloud aggregator shards; >1 runs the in-process fednet deployment with streamed partial sums (mean aggregation only)")
		muxN     = flag.Int("mux", 1, "-exp scale: devices hosted per device client; >1 runs the in-process fednet deployment")
	)
	flag.Parse()

	scale := middle.Scale(*scaleFlag)
	if scale != middle.Fast && scale != middle.Paper {
		fatalf("unknown scale %q (fast|paper)", *scaleFlag)
	}
	strats, err := parseStrategies(*strategies)
	if err != nil {
		fatalf("%v", err)
	}

	// The emitter is created before the metrics bundle so SLO breach
	// events land in the same JSONL stream as rounds and evals. With the
	// flight recorder armed, the stream tees into its bounded ring so a
	// bundle always carries the most recent events, -telemetry-out or
	// not.
	var telemetryFile *os.File
	var eventRing *flight.EventRing
	if *flightDir != "" {
		eventRing = flight.NewEventRing(0)
	}
	if *telemOut != "" {
		f, err := os.Create(*telemOut)
		if err != nil {
			fatalf("creating %s: %v", *telemOut, err)
		}
		telemetryFile = f
		events = obs.NewEmitter(eventRing.Tee(f))
	} else if eventRing != nil {
		events = obs.NewEmitter(eventRing)
	}

	// The tsdb rides along whenever any observability is on: -slo needs
	// it, and with -metrics-addr it backs /api/query and /dashboard.
	interval := *tsdbIntv
	if interval <= 0 && (*maddr != "" || *sloRules != "" || *tsdbOut != "") {
		interval = time.Second
	}
	metrics, err = experiments.StartMetricsConfig(experiments.MetricsConfig{
		Addr:            *maddr,
		TSDBInterval:    interval,
		SLORules:        *sloRules,
		Events:          events,
		FlightDir:       *flightDir,
		ProfileInterval: *profIntv,
		FlightManifest:  obs.Manifest{Name: "middlesim-" + *exp, Command: os.Args, Extra: flagManifest()},
		FlightEvents:    eventRing,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if metrics != nil {
		if addr := metrics.Addr(); addr != "" {
			fmt.Printf("middlesim: metrics listening on %s\n", addr)
		}
		metrics.SetStatus("experiment", *exp)
		metrics.SetStatus("task", *task)
		metrics.SetStatus("scale", *scaleFlag)
		defer metrics.Close()
	}
	// Forensic hooks: a panic anywhere under main and a SIGQUIT/SIGUSR1
	// both produce a bundle. These defers run before metrics.Close, so
	// captures see the live tsdb/trace/SLO state.
	flightRec = metrics.Flight()
	defer flightRec.CapturePanic()
	defer flightRec.NotifySignals()()
	// The trace backing /debug/trace doubles as the -trace-out source;
	// with metrics disabled a standalone collector still feeds the file.
	trace = metrics.Trace()
	if *traceOut != "" && trace == nil {
		trace = obs.NewTrace(0)
	}

	switch *exp {
	case "fig1":
		runFig1(scale, *seed, *steps, *csvDir)
	case "fig2":
		runFig2(scale, *seed, *csvDir)
	case "fig6":
		forTasks(*task, func(t middle.TaskName) {
			if *seeds > 1 {
				runFig6Seeds(t, scale, strats, *p, *seed, *seeds, *steps, *csvDir, *smooth)
			} else {
				runFig6(t, scale, strats, *p, *seed, *steps, *csvDir, *smooth)
			}
		})
	case "fig7":
		forTasks(*task, func(t middle.TaskName) { runFig7(t, scale, strats, *seed, *steps) })
	case "fig8":
		forTasks(*task, func(t middle.TaskName) { runFig8(t, scale, *p, *seed, *steps, *csvDir, *smooth) })
	case "ablation":
		forTasks(*task, func(t middle.TaskName) { runAblation(t, scale, *p, *seed, *steps, *csvDir, *smooth) })
	case "mobmodels":
		forTasks(*task, func(t middle.TaskName) { runMobilityModels(t, scale, *p, *seed, *steps) })
	case "theory":
		runTheory(scale, *seed)
	case "run":
		agg, err := middle.ParseAggregator(*aggName)
		if err != nil {
			fatalf("%v", err)
		}
		mode, err := middle.ParseAdversaryMode(*advMode)
		if err != nil {
			fatalf("%v", err)
		}
		faults := simFaults{
			quorum: *quorum, dropRate: *dropRate, faultSeed: *faultSeed,
			agg: agg, trimFrac: *trimFrac, normBound: *normBound,
			adv: middle.Adversary{
				Fraction: *advFrac, Mode: mode, Scale: *advScale, Seed: *advSeed,
			},
			selNormCap:    *selNormCap,
			liveMigration: *liveMig, migrationFailRate: *migFailRate,
			selfHealing: *selfHeal, edgeFailRate: *edgeFailRate, edgeRecoverSteps: *edgeRecoverFor,
		}
		forTasks(*task, func(t middle.TaskName) {
			runSingle(t, scale, *strategy, *p, *seed, *steps, *saveModel, *csvDir, faults)
		})
	case "scale":
		forTasks(*task, func(t middle.TaskName) {
			runScale(t, scaleOpts{
				devices: *devicesN, edges: *edgesN, k: *kSel, tc: *tcN,
				residentCap: *resCap, shards: *shardsN, mux: *muxN,
				steps: *steps, p: *p, seed: *seed, strategy: *strategy,
				liveMigration: *liveMig, migrationFailRate: *migFailRate,
				selfHealing: *selfHeal, edgeFailRate: *edgeFailRate,
				edgeRecoverSteps: *edgeRecoverFor, membership: *membershipOn,
			})
		})
	case "all":
		runFig1(scale, *seed, *steps, *csvDir)
		runFig2(scale, *seed, *csvDir)
		forTasks(*task, func(t middle.TaskName) {
			runFig6(t, scale, strats, *p, *seed, *steps, *csvDir, *smooth)
			runFig7(t, scale, strats, *seed, *steps)
			runFig8(t, scale, *p, *seed, *steps, *csvDir, *smooth)
		})
		runTheory(scale, *seed)
	default:
		fatalf("unknown experiment %q", *exp)
	}

	// The SLO gate finalizes first (final scrape + eval) so any breach
	// event reaches the telemetry stream before it is closed below.
	breached := metrics.FinalizeSLO()
	if *tsdbOut != "" {
		if err := metrics.DumpTSDB(*tsdbOut); err != nil {
			fatalf("writing %s: %v", *tsdbOut, err)
		}
		fmt.Printf("middlesim: wrote tsdb dump %s\n", *tsdbOut)
	}

	if path, err := metrics.WriteSummary(*results, "middlesim-"+*exp, os.Args,
		map[string]any{"task": *task, "scale": *scaleFlag, "seed": *seed,
			"peak_rss_bytes": obs.PeakRSSBytes()}); err != nil {
		fatalf("writing summary: %v", err)
	} else if path != "" {
		fmt.Printf("middlesim: wrote summary %s\n", path)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("creating %s: %v", *traceOut, err)
		}
		if err := trace.WriteJSON(f); err != nil {
			fatalf("writing %s: %v", *traceOut, err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing %s: %v", *traceOut, err)
		}
		fmt.Printf("middlesim: wrote trace %s (%d spans)\n", *traceOut, trace.Len())
	}
	if telemetryFile != nil {
		if err := events.Err(); err != nil {
			fatalf("writing %s: %v", *telemOut, err)
		}
		if err := telemetryFile.Close(); err != nil {
			fatalf("writing %s: %v", *telemOut, err)
		}
		fmt.Printf("middlesim: wrote telemetry %s\n", *telemOut)
	}
	if len(breached) > 0 {
		fmt.Fprintf(os.Stderr, "middlesim: SLO breach: %s\n", strings.Join(breached, ", "))
		os.Exit(3)
	}
}

// metrics, trace, events and flightRec are the process-wide
// observability handles (nil when their flags are unset); newSetup
// threads them into every experiment configuration, and fatalf uses the
// recorder so even flag-validation deaths after arming leave a bundle.
var (
	metrics   *experiments.Metrics
	trace     *obs.Trace
	events    *obs.Emitter
	flightRec *flight.Recorder
)

// flagManifest snapshots every flag's effective value for the bundle
// manifest, so a postmortem records exactly how the run was configured.
func flagManifest() map[string]any {
	m := map[string]any{}
	flag.VisitAll(func(f *flag.Flag) {
		m[f.Name] = f.Value.String()
	})
	return m
}

func newSetup(task middle.TaskName, scale middle.Scale, seed int64) *middle.TaskSetup {
	s := middle.NewTaskSetup(task, scale, seed)
	s.Obs = metrics.Registry()
	s.Events = events
	s.Trace = trace
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "middlesim: "+format+"\n", args...)
	_, _ = flightRec.Capture("fatal " + fmt.Sprintf(format, args...))
	os.Exit(1)
}

func parseStrategies(list string) ([]middle.Strategy, error) {
	if list == "" {
		return middle.EvaluationSet(), nil
	}
	var out []middle.Strategy
	for _, name := range strings.Split(list, ",") {
		s, err := middle.StrategyByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func forTasks(task string, fn func(middle.TaskName)) {
	if task == "all" {
		for _, t := range middle.AllTasks() {
			fn(t)
		}
		return
	}
	t := middle.TaskName(task)
	switch t {
	case data.TaskMNIST, data.TaskEMNIST, data.TaskCIFAR, data.TaskSpeech:
		fn(t)
	default:
		fatalf("unknown task %q (mnist|emnist|cifar10|speech|all)", task)
	}
}

func writeCSV(dir, name string, series []middle.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("creating %s: %v", dir, err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatalf("creating %s: %v", path, err)
	}
	defer f.Close()
	if err := middle.WriteSeriesCSV(f, series); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("  wrote %s\n", path)
}

func smoothAll(series []middle.Series, window int) []middle.Series {
	if window <= 1 {
		return series
	}
	out := make([]middle.Series, len(series))
	for i, s := range series {
		out[i] = middle.Series{Name: s.Name, X: s.X, Y: middle.Smooth(s.Y, window)}
	}
	return out
}

func runFig1(scale middle.Scale, seed int64, steps int, csvDir string) {
	fmt.Printf("=== Figure 1: Non-IID across edges starves minor classes (scale=%s) ===\n", scale)
	r := middle.RunFig1(middle.Fig1Config{Scale: scale, Seed: seed, Steps: steps})
	fmt.Print(middle.LineChart("accuracy over time steps", r.Series(), 70, 16))
	last := len(r.Steps) - 1
	fmt.Printf("final: global %.4f | edge1 %.4f | edge1 major %.4f | edge1 minor %.4f\n\n",
		r.GlobalAcc[last], r.EdgeAcc[last], r.MajorAcc[last], r.MinorAcc[last])
	writeCSV(csvDir, "fig1.csv", r.Series())
}

func runFig2(scale middle.Scale, seed int64, csvDir string) {
	fmt.Printf("=== Figure 2: on-device model aggregation case study (scale=%s) ===\n", scale)
	r := middle.RunFig2(middle.Fig2Config{Scale: scale, Seed: seed})
	classLabels := make([]string, r.Classes)
	for c := range classLabels {
		classLabels[c] = fmt.Sprintf("class %d", c)
	}
	fmt.Print(middle.BarChart("global (cloud) model per-class accuracy", classLabels, r.Methods,
		transpose(r.CloudPerClass), 30))
	fmt.Print(middle.BarChart("edge model 1 per-class accuracy", classLabels, r.Methods,
		transpose(r.EdgePerClass), 30))
	fmt.Printf("overall: cloud %s %.4f vs %s %.4f | edge1 %s %.4f vs %s %.4f\n",
		r.Methods[0], r.CloudOverall[0], r.Methods[1], r.CloudOverall[1],
		r.Methods[0], r.EdgeOverall[0], r.Methods[1], r.EdgeOverall[1])
	fmt.Printf("classes that moved across edges: %v\n\n", r.SwappedClasses)
	if csvDir != "" {
		var series []middle.Series
		for mi, m := range r.Methods {
			x := make([]int, r.Classes)
			for c := range x {
				x[c] = c
			}
			series = append(series,
				middle.Series{Name: "cloud-" + m, X: x, Y: r.CloudPerClass[mi]},
				middle.Series{Name: "edge1-" + m, X: x, Y: r.EdgePerClass[mi]})
		}
		writeCSV(csvDir, "fig2.csv", series)
	}
}

func transpose(in [][]float64) [][]float64 {
	if len(in) == 0 {
		return nil
	}
	out := make([][]float64, len(in[0]))
	for i := range out {
		out[i] = make([]float64, len(in))
		for j := range in {
			out[i][j] = in[j][i]
		}
	}
	return out
}

func runFig6(task middle.TaskName, scale middle.Scale, strats []middle.Strategy, p float64, seed int64, steps int, csvDir string, smooth int) {
	fmt.Printf("=== Figure 6 (%s): time-to-accuracy, P=%.2f (scale=%s) ===\n", task, p, scale)
	setup := newSetup(task, scale, seed)
	r := middle.RunFig6(setup, strats, p, seed, steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, smooth), 70, 16))
	fmt.Println(r.SpeedupTable())
	writeCSV(csvDir, fmt.Sprintf("fig6_%s.csv", task), r.Curves)
}

func runFig6Seeds(task middle.TaskName, scale middle.Scale, strats []middle.Strategy, p float64, seed int64, nSeeds, steps int, csvDir string, smooth int) {
	fmt.Printf("=== Figure 6 (%s): time-to-accuracy averaged over %d seeds, P=%.2f (scale=%s) ===\n", task, nSeeds, p, scale)
	seedList := make([]int64, nSeeds)
	for i := range seedList {
		seedList[i] = seed + int64(i)*1000
	}
	r := middle.RunFig6Seeds(task, scale, strats, p, seedList, steps)
	fmt.Print(middle.LineChart("mean global accuracy over time steps", smoothAll(r.MeanCurves(), smooth), 70, 16))
	fmt.Println(r.Table())
	writeCSV(csvDir, fmt.Sprintf("fig6_%s_seeds.csv", task), r.MeanCurves())
}

func runFig7(task middle.TaskName, scale middle.Scale, strats []middle.Strategy, seed int64, steps int) {
	ps := []float64{0.1, 0.3, 0.5}
	fmt.Printf("=== Figure 7 (%s): final accuracy vs global mobility P (scale=%s) ===\n", task, scale)
	setup := newSetup(task, scale, seed)
	r := middle.RunFig7(setup, strats, ps, seed, steps)
	groups := make([]string, len(ps))
	for i, p := range ps {
		groups[i] = fmt.Sprintf("P=%.1f", p)
	}
	fmt.Print(middle.BarChart("final global accuracy", r.Strategies, groups, r.FinalAcc, 30))
	fmt.Println()
}

func runFig8(task middle.TaskName, scale middle.Scale, p float64, seed int64, steps int, csvDir string, smooth int) {
	tcs := []int{5, 10, 20}
	fmt.Printf("=== Figure 8 (%s): MIDDLE vs OORT across T_c (scale=%s) ===\n", task, scale)
	setup := newSetup(task, scale, seed)
	r := middle.RunFig8(setup, []middle.Strategy{middle.MIDDLE(), middle.OORT()}, tcs, p, seed, steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, smooth), 70, 16))
	for _, c := range r.Curves {
		if len(c.Y) > 0 {
			fmt.Printf("  final %-16s %.4f\n", c.Name, c.Y[len(c.Y)-1])
		}
	}
	fmt.Println()
	writeCSV(csvDir, fmt.Sprintf("fig8_%s.csv", task), r.Curves)
}

func runAblation(task middle.TaskName, scale middle.Scale, p float64, seed int64, steps int, csvDir string, smooth int) {
	fmt.Printf("=== Ablation (%s): MIDDLE vs its two mechanisms in isolation (scale=%s) ===\n", task, scale)
	setup := newSetup(task, scale, seed)
	r := middle.RunAblation(setup, p, seed, steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, smooth), 70, 16))
	fmt.Println(r.Table())
	writeCSV(csvDir, fmt.Sprintf("ablation_%s.csv", task), r.Curves)
}

func runMobilityModels(task middle.TaskName, scale middle.Scale, p float64, seed int64, steps int) {
	fmt.Printf("=== Mobility models (%s): MIDDLE under Markov vs random waypoint (scale=%s) ===\n", task, scale)
	setup := newSetup(task, scale, seed)
	r := middle.RunMobilityModels(setup, p, seed, steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", r.Curves, 70, 14))
	for name, ep := range r.EmpiricalP {
		fmt.Printf("  %-10s empirical mobility %.3f\n", name, ep)
	}
	fmt.Println()
}

func runTheory(scale middle.Scale, seed int64) {
	fmt.Printf("=== Theorem 1 / Remark 1: convex validation (scale=%s) ===\n", scale)
	r := middle.RunTheory(middle.TheoryConfig{Scale: scale, Seed: seed})
	fmt.Println("P      bound(α=0.5)   " + header(r.Alphas))
	for i, p := range r.Ps {
		fmt.Printf("%-6.2f %-14.4g", p, r.Bound[i])
		for j := range r.Alphas {
			fmt.Printf(" gap=%-9.3g div=%-9.3g", r.Gap[i][j], r.Divergence[i][j])
		}
		fmt.Println()
	}
	fmt.Println("(bound decreases monotonically in P — Remark 1; div is the start-point divergence the proof bounds)")
	fmt.Println()
}

func header(alphas []float64) string {
	parts := make([]string, len(alphas))
	for i, a := range alphas {
		parts[i] = fmt.Sprintf("[α=%.1f: gap, divergence]", a)
	}
	return strings.Join(parts, " ")
}

// simFaults carries the -exp run robustness flags into the hfl config.
type simFaults struct {
	quorum    int
	dropRate  float64
	faultSeed int64

	agg        middle.AggregatorKind
	trimFrac   float64
	normBound  float64
	adv        middle.Adversary
	selNormCap float64

	liveMigration     bool
	migrationFailRate float64

	selfHealing      bool
	edgeFailRate     float64
	edgeRecoverSteps int
}

func runSingle(task middle.TaskName, scale middle.Scale, strategy string, p float64, seed int64, steps int, saveModel, csvDir string, faults simFaults) {
	strat, err := middle.StrategyByName(strategy)
	if err != nil {
		fatalf("%v", err)
	}
	setup := newSetup(task, scale, seed)
	part := setup.Partition(seed)
	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, p, seed+11)
	cfg := setup.Config(seed, steps)
	cfg.Quorum = faults.quorum
	cfg.DropRate = faults.dropRate
	cfg.FaultSeed = faults.faultSeed
	cfg.Aggregator = faults.agg
	cfg.TrimFrac = faults.trimFrac
	if faults.normBound > 0 {
		cfg.Validate = middle.ValidatorConfig{Enabled: true, NormBound: faults.normBound}
	}
	cfg.Adversary = faults.adv
	cfg.SelectionNormCap = faults.selNormCap
	cfg.LiveMigration = faults.liveMigration
	cfg.MigrationFailRate = faults.migrationFailRate
	cfg.SelfHealing = faults.selfHealing
	cfg.EdgeFailRate = faults.edgeFailRate
	cfg.EdgeRecoverSteps = faults.edgeRecoverSteps
	sim := middle.NewSimulation(cfg, setup.Factory, part, setup.Test, mob, strat)
	fmt.Printf("=== %s on %s (scale=%s, P=%.2f) ===\n", strategy, task, scale, p)
	h := sim.Run()
	fmt.Print(middle.LineChart("global accuracy", []middle.Series{{Name: strategy, X: h.Steps, Y: h.GlobalAcc}}, 70, 14))
	if step, ok := h.TimeToAccuracy(setup.TargetAcc); ok {
		fmt.Printf("reached target %.2f at time step %d\n", setup.TargetAcc, step)
	} else {
		fmt.Printf("target %.2f not reached; final accuracy %.4f\n", setup.TargetAcc, h.FinalAcc())
	}
	fmt.Printf("empirical mobility: %.3f\n\n", h.EmpiricalMobility)
	if faults.dropRate > 0 || faults.quorum > 0 {
		fmt.Printf("injected drops: %d, quorum misses: %d\n\n", sim.FaultDrops(), sim.QuorumMisses())
	}
	if faults.liveMigration {
		ok, fb := sim.Migrations()
		fmt.Printf("migrations: %d ok, %d fallbacks\n\n", ok, fb)
	}
	if faults.selfHealing {
		fmt.Printf("self-healing: %d edge failovers, %d devices re-homed, membership epoch %d\n\n",
			sim.Failovers(), sim.RehomedDevices(), sim.MembershipEpoch())
	}
	if faults.adv.Fraction > 0 || faults.normBound > 0 {
		rc := sim.RejectedUpdates()
		fmt.Printf("adversary corruptions: %d; rejected updates: %d (%d nonfinite, %d norm; rate %.4f)\n\n",
			sim.AdversaryCorruptions(), rc.Total(), rc.NonFinite, rc.Norm, sim.RejectionRate())
	}
	if csvDir != "" {
		// The full per-run history (accuracy, communication, phase-time
		// and telemetry columns) — middleplot renders every column group.
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatalf("creating %s: %v", csvDir, err)
		}
		path := filepath.Join(csvDir, fmt.Sprintf("run_%s_%s_history.csv", task, strategy))
		f, err := os.Create(path)
		if err != nil {
			fatalf("creating %s: %v", path, err)
		}
		if err := h.WriteCSV(f); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	if saveModel != "" {
		f, err := os.Create(saveModel)
		if err != nil {
			fatalf("creating %s: %v", saveModel, err)
		}
		defer f.Close()
		name := fmt.Sprintf("%s-%s-P%.2f-seed%d", task, strategy, p, seed)
		if err := middle.SaveModel(f, name, sim.CloudModel()); err != nil {
			fatalf("saving model: %v", err)
		}
		fmt.Printf("saved global model to %s\n", saveModel)
	}
}
