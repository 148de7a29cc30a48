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
//
// Flags, by the struct they fill (registerFlags): experiments.CLI takes
// -task -scale -seed and the observability flags (-tsdb-out beside
// them); an hfl.Config takes the simulator's aggregation and adversary
// knobs and is laid over the config of -exp run and of -exp scale's
// simulator path; scaleOpts takes the -exp scale topology (-devices
// -edges -k -tc -resident-cap) and the deployment's own options (-mux
// -live-migration); the rest select the run and its outputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"middle"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/obs"
)

// options is everything the flags fill. A flag binds into the struct
// that consumes it: the shared block into experiments.CLI, the
// simulator's knobs into an hfl.Config that overlay lays over each run's
// own, the -exp scale topology into scaleOpts.
type options struct {
	experiments.CLI // -task -scale -seed and the observability flags

	exp, strategy, strategies string
	p                         float64
	steps, smooth, seeds      int
	csvDir, saveModel         string
	telemetryOut              string

	sim   middle.Config
	scale scaleOpts

	size   middle.Scale      // -scale, validated
	strats []middle.Strategy // -strategies, resolved
}

// registerFlags declares middlesim's flags on fs, grouped by the struct
// they fill.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{CLI: experiments.CLI{Name: "middlesim"}}
	o.Logf = func(format string, args ...any) { fmt.Printf("middlesim: "+format+"\n", args...) }
	o.RegisterFlags(fs)
	fs.StringVar(&o.Metrics.TSDBOut, "tsdb-out", "", "write the tsdb's full history as JSON at exit (middleplot renders it)")
	fs.StringVar(&o.telemetryOut, "telemetry-out", "", "write the per-round/per-eval learning-dynamics JSONL stream here")

	fs.StringVar(&o.exp, "exp", "fig6", "experiment: fig1|fig2|fig6|fig7|fig8|ablation|mobmodels|theory|run|scale|all")
	fs.Float64Var(&o.p, "p", 0.5, "global mobility P")
	fs.IntVar(&o.steps, "steps", 0, "time-step horizon override (0 = scale default)")
	fs.StringVar(&o.strategy, "strategy", "MIDDLE", "strategy for -exp run and -exp scale")
	fs.StringVar(&o.strategies, "strategies", "", "comma-separated strategy subset (default: paper set)")
	fs.StringVar(&o.csvDir, "csv", "", "directory to write CSV series into")
	fs.IntVar(&o.smooth, "smooth", 1, "smoothing window for printed curves")
	fs.IntVar(&o.seeds, "seeds", 1, "number of seeds to average (fig6 only)")
	fs.StringVar(&o.saveModel, "savemodel", "", "write the final global model checkpoint here (-exp run only)")

	// hfl.Config, for -exp run and the simulator path of -exp scale: the
	// aggregation and Byzantine knobs. Defaults keep the plain engine's bits.
	c := &o.sim
	experiments.AggregationFlags(fs, &c.Aggregator, &c.Validate, &c.SelectionNormCap)
	fs.Float64Var(&c.Adversary.Fraction, "adversary-fraction", 0, "fraction of devices sign-flipping their uploads (0 = off)")
	fs.Float64Var(&c.Adversary.Scale, "adversary-scale", 0, "adversary sign-flip amplitude (0 = 1)")
	fs.Int64Var(&c.Adversary.Seed, "adversary-seed", 0, "seed for deterministic adversary membership")

	// scaleOpts, -exp scale only. The simulator path (default) uses the
	// lazy device store, so memory is bounded by the cohort and the cap,
	// not -devices; -mux runs the in-process deployment instead.
	sc := &o.scale
	fs.IntVar(&sc.devices, "devices", 0, "-exp scale: device population size (0 = task default)")
	fs.IntVar(&sc.edges, "edges", 0, "-exp scale: edge server count (0 = task default)")
	fs.IntVar(&sc.k, "k", 0, "-exp scale: devices selected per edge per step (0 = task default)")
	fs.IntVar(&sc.tc, "tc", 0, "-exp scale: cloud aggregation interval T_c in steps (0 = task default)")
	fs.IntVar(&sc.residentCap, "resident-cap", 0, "-exp scale: bound on materialized device models in the lazy store; must fit the full cohort k×edges (0 = unbounded)")
	fs.IntVar(&sc.mux, "mux", 1, "-exp scale: devices hosted per device client; >1 runs the in-process fednet deployment")
	fs.BoolVar(&sc.liveMigration, "live-migration", false, "-exp scale deployment (-mux): a moving device registers at its new edge warm, keeping its model for Eq. 9 and carrying its Eq. 12 scores, instead of joining cold")
	return o
}

func main() {
	log.SetFlags(0) // fatal lines read "middlesim: …", like the progress lines
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	o.size = middle.Scale(o.Scale)
	if o.size != middle.Fast && o.size != middle.Paper {
		o.fatalf("unknown scale %q (fast|paper)", o.Scale)
	}
	var err error
	if o.strats, err = parseStrategies(o.strategies); err != nil {
		o.fatalf("%v", err)
	}
	// The telemetry stream is opened before Start so SLO breach events
	// land in the same JSONL file as rounds and evals.
	var telemetry *os.File
	if o.telemetryOut != "" {
		if telemetry, err = os.Create(o.telemetryOut); err != nil {
			o.fatalf("creating %s: %v", o.telemetryOut, err)
		}
		o.EventSink = telemetry
	}
	defer o.Start("experiment", o.exp)()
	o.run()
	breached := o.Finish(map[string]any{"task": o.Task, "scale": o.Scale, "seed": o.Seed,
		"peak_rss_bytes": obs.PeakRSSBytes()})
	if telemetry != nil {
		if err = o.Events.Err(); err == nil {
			err = telemetry.Close()
		}
		if err != nil {
			o.fatalf("writing %s: %v", o.telemetryOut, err)
		}
		fmt.Printf("middlesim: wrote telemetry %s\n", o.telemetryOut)
	}
	if len(breached) > 0 {
		fmt.Fprintf(os.Stderr, "middlesim: SLO breach: %s\n", strings.Join(breached, ", "))
		os.Exit(3)
	}
}

// run dispatches -exp: an experiment runs once, or once per -task.
func (o *options) run() {
	fig6 := o.runFig6
	if o.seeds > 1 {
		fig6 = o.runFig6Seeds
	}
	once := map[string]func(){"fig1": o.runFig1, "fig2": o.runFig2, "theory": o.runTheory}
	perTask := map[string]func(middle.TaskName){
		"fig6": fig6, "fig7": o.runFig7, "fig8": o.runFig8, "ablation": o.runAblation,
		"mobmodels": o.runMobilityModels, "run": o.runSingle, "scale": o.runScale,
	}
	switch {
	case once[o.exp] != nil:
		once[o.exp]()
	case perTask[o.exp] != nil:
		o.forTasks(perTask[o.exp])
	case o.exp == "all":
		o.runFig1()
		o.runFig2()
		o.forTasks(func(t middle.TaskName) {
			o.runFig6(t)
			o.runFig7(t)
			o.runFig8(t)
		})
		o.runTheory()
	default:
		o.fatalf("unknown experiment %q", o.exp)
	}
}

// setup builds a task's setup wired to the run's observability handles.
func (o *options) setup(task middle.TaskName) *middle.TaskSetup {
	return o.Attach(middle.NewTaskSetup(task, o.size, o.Seed))
}

// fatalf exits 1 with the message (and a flight bundle, once armed).
func (o *options) fatalf(format string, args ...any) {
	o.Fatalf("middlesim: "+format, args...)
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

// forTasks runs fn for -task, or for every task under -task all.
func (o *options) forTasks(fn func(middle.TaskName)) {
	if o.Task == "all" {
		for _, t := range middle.AllTasks() {
			fn(t)
		}
		return
	}
	t := middle.TaskName(o.Task)
	switch t {
	case data.TaskMNIST, data.TaskEMNIST, data.TaskCIFAR, data.TaskSpeech:
		fn(t)
	default:
		o.fatalf("unknown task %q (mnist|emnist|cifar10|speech|all)", o.Task)
	}
}

// writeCSV writes what write produces to -csv DIR/name (no-op without
// -csv).
func (o *options) writeCSV(name string, write func(io.Writer) error) {
	if o.csvDir == "" {
		return
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		o.fatalf("creating %s: %v", o.csvDir, err)
	}
	path := filepath.Join(o.csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		o.fatalf("creating %s: %v", path, err)
	}
	if err = write(f); err == nil {
		err = f.Close()
	}
	if err != nil {
		o.fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("  wrote %s\n", path)
}

func (o *options) writeSeriesCSV(name string, series []middle.Series) {
	o.writeCSV(name, func(w io.Writer) error { return middle.WriteSeriesCSV(w, series) })
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

func (o *options) runFig1() {
	fmt.Printf("=== Figure 1: Non-IID across edges starves minor classes (scale=%s) ===\n", o.size)
	r := middle.RunFig1(middle.Fig1Config{Scale: o.size, Seed: o.Seed, Steps: o.steps})
	fmt.Print(middle.LineChart("accuracy over time steps", r.Series(), 70, 16))
	last := len(r.Steps) - 1
	fmt.Printf("final: global %.4f | edge1 %.4f | edge1 major %.4f | edge1 minor %.4f\n\n",
		r.GlobalAcc[last], r.EdgeAcc[last], r.MajorAcc[last], r.MinorAcc[last])
	o.writeSeriesCSV("fig1.csv", r.Series())
}

func (o *options) runFig2() {
	fmt.Printf("=== Figure 2: on-device model aggregation case study (scale=%s) ===\n", o.size)
	r := middle.RunFig2(middle.Fig2Config{Scale: o.size, Seed: o.Seed})
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
	if o.csvDir != "" {
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
		o.writeSeriesCSV("fig2.csv", series)
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

func (o *options) runFig6(task middle.TaskName) {
	fmt.Printf("=== Figure 6 (%s): time-to-accuracy, P=%.2f (scale=%s) ===\n", task, o.p, o.size)
	r := middle.RunFig6(o.setup(task), o.strats, o.p, o.Seed, o.steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, o.smooth), 70, 16))
	fmt.Println(r.SpeedupTable())
	o.writeSeriesCSV(fmt.Sprintf("fig6_%s.csv", task), r.Curves)
}

func (o *options) runFig6Seeds(task middle.TaskName) {
	fmt.Printf("=== Figure 6 (%s): time-to-accuracy averaged over %d seeds, P=%.2f (scale=%s) ===\n", task, o.seeds, o.p, o.size)
	seedList := make([]int64, o.seeds)
	for i := range seedList {
		seedList[i] = o.Seed + int64(i)*1000
	}
	r := middle.RunFig6Seeds(task, o.size, o.strats, o.p, seedList, o.steps)
	fmt.Print(middle.LineChart("mean global accuracy over time steps", smoothAll(r.MeanCurves(), o.smooth), 70, 16))
	fmt.Println(r.Table())
	o.writeSeriesCSV(fmt.Sprintf("fig6_%s_seeds.csv", task), r.MeanCurves())
}

func (o *options) runFig7(task middle.TaskName) {
	ps := []float64{0.1, 0.3, 0.5}
	fmt.Printf("=== Figure 7 (%s): final accuracy vs global mobility P (scale=%s) ===\n", task, o.size)
	r := middle.RunFig7(o.setup(task), o.strats, ps, o.Seed, o.steps)
	groups := make([]string, len(ps))
	for i, p := range ps {
		groups[i] = fmt.Sprintf("P=%.1f", p)
	}
	fmt.Print(middle.BarChart("final global accuracy", r.Strategies, groups, r.FinalAcc, 30))
	fmt.Println()
}

func (o *options) runFig8(task middle.TaskName) {
	tcs := []int{5, 10, 20}
	fmt.Printf("=== Figure 8 (%s): MIDDLE vs OORT across T_c (scale=%s) ===\n", task, o.size)
	r := middle.RunFig8(o.setup(task), []middle.Strategy{middle.MIDDLE(), middle.OORT()}, tcs, o.p, o.Seed, o.steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, o.smooth), 70, 16))
	for _, c := range r.Curves {
		if len(c.Y) > 0 {
			fmt.Printf("  final %-16s %.4f\n", c.Name, c.Y[len(c.Y)-1])
		}
	}
	fmt.Println()
	o.writeSeriesCSV(fmt.Sprintf("fig8_%s.csv", task), r.Curves)
}

func (o *options) runAblation(task middle.TaskName) {
	fmt.Printf("=== Ablation (%s): MIDDLE vs its two mechanisms in isolation (scale=%s) ===\n", task, o.size)
	r := middle.RunAblation(o.setup(task), o.p, o.Seed, o.steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", smoothAll(r.Curves, o.smooth), 70, 16))
	fmt.Println(r.Table())
	o.writeSeriesCSV(fmt.Sprintf("ablation_%s.csv", task), r.Curves)
}

func (o *options) runMobilityModels(task middle.TaskName) {
	fmt.Printf("=== Mobility models (%s): MIDDLE under Markov vs random waypoint (scale=%s) ===\n", task, o.size)
	r := middle.RunMobilityModels(o.setup(task), o.p, o.Seed, o.steps)
	fmt.Print(middle.LineChart("global accuracy over time steps", r.Curves, 70, 14))
	for name, ep := range r.EmpiricalP {
		fmt.Printf("  %-10s empirical mobility %.3f\n", name, ep)
	}
	fmt.Println()
}

func (o *options) runTheory() {
	fmt.Printf("=== Theorem 1 / Remark 1: convex validation (scale=%s) ===\n", o.size)
	r := middle.RunTheory(middle.TheoryConfig{Scale: o.size, Seed: o.Seed})
	fmt.Println("P      bound(α=0.5)   " + header(r.Alphas))
	for i, p := range r.Ps {
		fmt.Printf("%-6.2f %-14.4g", p, r.Bound[i])
		for j := range r.Alphas {
			fmt.Printf(" gap=%-18s div=%-15s", fmt.Sprintf("%.3g±%.2g", r.Gap[i][j], r.GapHW[i][j]),
				fmt.Sprintf("%.3g±%.2g", r.Divergence[i][j], r.DivergenceHW[i][j]))
		}
		fmt.Println()
	}
	fmt.Println("(mean±95% half-width over seeds; bound decreases monotonically in P — Remark 1; div is the start-point divergence the proof bounds)")
	fmt.Println()
}

func header(alphas []float64) string {
	parts := make([]string, len(alphas))
	for i, a := range alphas {
		parts[i] = fmt.Sprintf("[α=%.1f: gap, divergence]", a)
	}
	return strings.Join(parts, " ")
}

// overlay lays the hfl.Config fields flags set over a setup's config:
// the one list of what -exp run and the -exp scale simulator take from
// the command line.
func (o *options) overlay(cfg *middle.Config) {
	f := o.sim
	cfg.Aggregator, cfg.Validate = f.Aggregator, f.Validate
	cfg.Adversary, cfg.SelectionNormCap = f.Adversary, f.SelectionNormCap
}

func (o *options) runSingle(task middle.TaskName) {
	strat, err := middle.StrategyByName(o.strategy)
	if err != nil {
		o.fatalf("%v", err)
	}
	setup := o.setup(task)
	part := setup.Partition(o.Seed)
	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, o.p, o.Seed+11)
	cfg := setup.Config(o.Seed, o.steps)
	o.overlay(&cfg)
	sim := middle.NewSimulation(cfg, setup.Factory, part, setup.Test, mob, strat)
	fmt.Printf("=== %s on %s (scale=%s, P=%.2f) ===\n", o.strategy, task, o.size, o.p)
	h := sim.Run()
	fmt.Print(middle.LineChart("global accuracy", []middle.Series{{Name: o.strategy, X: h.Steps, Y: h.GlobalAcc}}, 70, 14))
	if step, ok := h.TimeToAccuracy(setup.TargetAcc); ok {
		fmt.Printf("reached target %.2f at time step %d\n", setup.TargetAcc, step)
	} else {
		fmt.Printf("target %.2f not reached; final accuracy %.4f\n", setup.TargetAcc, h.FinalAcc())
	}
	fmt.Printf("empirical mobility: %.3f\n\n", h.EmpiricalMobility)
	if cfg.Adversary.Fraction > 0 || cfg.Validate.Enabled {
		rc := sim.RejectedUpdates()
		fmt.Printf("adversary corruptions: %d; rejected updates: %d (%d nonfinite, %d norm; rate %.4f)\n\n",
			sim.AdversaryCorruptions(), rc.Total(), rc.NonFinite, rc.Norm, sim.RejectionRate())
	}
	// The full per-run history (accuracy, communication, phase-time and
	// telemetry columns) — middleplot renders every column group.
	o.writeCSV(fmt.Sprintf("run_%s_%s_history.csv", task, o.strategy), h.WriteCSV)
	if o.saveModel != "" {
		f, err := os.Create(o.saveModel)
		if err != nil {
			o.fatalf("creating %s: %v", o.saveModel, err)
		}
		name := fmt.Sprintf("%s-%s-P%.2f-seed%d", task, o.strategy, o.p, o.Seed)
		if err = middle.SaveModel(f, name, sim.CloudModel()); err == nil {
			err = f.Close()
		}
		if err != nil {
			o.fatalf("saving model: %v", err)
		}
		fmt.Printf("saved global model to %s\n", o.saveModel)
	}
}
