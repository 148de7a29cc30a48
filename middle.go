// Package middle is the public API of this repository: a Go
// implementation of MIDDLE — Mobility-Driven Device-Edge-Cloud Federated
// Learning (Zhang et al., ICPP 2023) — together with the hierarchical
// federated learning engine, synthetic learning tasks, mobility models
// and baselines its evaluation needs.
//
// The three-minute tour:
//
//	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, 1)
//	part := setup.Partition(1)
//	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, 0.5, 1)
//	sim := middle.NewSimulation(setup.Config(1, 0), setup.Factory,
//	        part, setup.Test, mob, middle.MIDDLE())
//	history := sim.Run()
//	fmt.Println(history.FinalAcc())
//
// Strategies implement the two policy hooks of the paper's Algorithm 1 —
// in-edge device selection and on-device model initialisation — so new
// policies plug into the same engine (see examples/custom_strategy).
package middle

import (
	"io"

	"middle/internal/checkpoint"
	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/eval"
	"middle/internal/experiments"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/simil"
	"middle/internal/tensor"
	"middle/internal/theory"
)

// --- simulation engine ------------------------------------------------

// Core engine types (see internal/hfl for full documentation).
type (
	// Config holds the Algorithm 1 hyper-parameters (K, I, T_c, …).
	Config = hfl.Config
	// Simulation is one device-edge-cloud federated training run.
	Simulation = hfl.Sim
	// History records a run's evaluation series.
	History = hfl.History
	// Strategy is the device-selection / model-initialisation policy.
	Strategy = hfl.Strategy
	// View is the read-only simulation state handed to strategies.
	View = hfl.View
	// ModelFactory builds instances of the task's architecture.
	ModelFactory = hfl.ModelFactory
)

// NewSimulation constructs a federated training run; see hfl.New.
func NewSimulation(cfg Config, factory ModelFactory, part *Partition, test *Dataset, mob MobilityModel, strat Strategy) *Simulation {
	return hfl.New(cfg, factory, part, test, mob, strat)
}

// TopKByScore is the TOPK(·) helper of paper Eq. 12, exported for custom
// strategies. It shuffles and reorders candidates in place, as
// Strategy.Select may: pass the engine's candidates, or a copy of a slice
// whose order you keep.
func TopKByScore(candidates []int, score func(device int) float64, k int, rng *RNG) []int {
	return hfl.TopKByScore(candidates, score, k, rng)
}

// --- strategies ---------------------------------------------------------

// MIDDLE returns the paper's proposed strategy (Eq. 9 + Eq. 12).
func MIDDLE() Strategy { return core.NewMiddle() }

// OORT returns the statistical-utility selection baseline.
func OORT() Strategy { return core.NewOort() }

// FedMes returns the 50/50 on-device averaging baseline.
func FedMes() Strategy { return core.NewFedMes() }

// General returns classical HFL (random selection, no aggregation).
func General() Strategy { return core.NewGeneral() }

// StrategyByName resolves a strategy from its paper name
// ("MIDDLE", "OORT", "FedMes", "Greedy", "Ensemble", "General").
func StrategyByName(name string) (Strategy, error) { return core.ByName(name) }

// EvaluationSet returns the five strategies of the paper's Figures 6–7.
func EvaluationSet() []Strategy { return core.EvaluationSet() }

// --- datasets and partitions ---------------------------------------------

// Dataset and partitioning types (see internal/data).
type (
	// Dataset is an in-memory labelled dataset.
	Dataset = data.Dataset
	// Partition assigns devices their Non-IID shards.
	Partition = data.Partition
	// TaskName identifies one of the four paper evaluation tasks.
	TaskName = data.TaskName
)

// Two of the paper's four evaluation tasks (AllTasks lists all four).
const (
	TaskMNIST  = data.TaskMNIST
	TaskSpeech = data.TaskSpeech
)

// AllTasks lists the evaluation tasks in paper order.
func AllTasks() []TaskName { return data.AllTasks() }

// --- mobility -------------------------------------------------------------

// Mobility types (see internal/mobility).
type (
	// MobilityModel produces device-to-edge membership per time step.
	MobilityModel = mobility.Model
	// Trace is a recorded membership sequence.
	Trace = mobility.Trace
)

// NewMarkovMobility builds the paper's P-parameterised mobility model
// (uniform destination over the other edges).
func NewMarkovMobility(edges, devices int, p float64, seed int64) MobilityModel {
	return mobility.NewMarkov(edges, devices, p, seed)
}

// NewRandomWaypointMobility builds a planar random-waypoint model with a
// gridW×gridH grid of edge base stations.
func NewRandomWaypointMobility(gridW, gridH, devices int, speedMin, speedMax float64, pauseMax int, seed int64) MobilityModel {
	return mobility.NewRandomWaypoint(gridW, gridH, devices, speedMin, speedMax, pauseMax, seed)
}

// RecordTrace runs a mobility model and captures its membership trace.
func RecordTrace(m MobilityModel, steps int) *Trace { return mobility.Record(m, steps) }

// ReadTrace parses a trace file written by Trace.Write.
func ReadTrace(r io.Reader) (*Trace, error) { return mobility.ReadTrace(r) }

// RNG is the deterministic random stream TopKByScore draws ties from.
type RNG = tensor.RNG

// --- similarity utility ------------------------------------------------

// OnDeviceAggregate is the paper's Eq. 9 on-device model aggregation.
func OnDeviceAggregate(wEdge, wLocal []float64) (aggregated []float64, utility float64) {
	return simil.OnDeviceAggregate(wEdge, wLocal)
}

// --- experiments ------------------------------------------------------------

// Experiment types (see internal/experiments and internal/eval).
type (
	// TaskSetup bundles a paper task's datasets, model and topology.
	TaskSetup = experiments.TaskSetup
	// Scale selects Fast or Paper experiment sizing.
	Scale = experiments.Scale
	// Series is a named (x, y) sequence for plotting.
	Series = eval.Series
	// TTAResult is a strategy's time-to-target-accuracy outcome.
	TTAResult = eval.TTAResult
	// Fig1Result, Fig2Result, Fig6Result, Fig7Result, Fig8Result and
	// TheoryResult hold the reproduced paper figures.
	Fig1Result = experiments.Fig1Result
	// AblationResult isolates MIDDLE's two mechanisms.
	AblationResult = experiments.AblationResult
	// MobilityModelsResult compares mobility models at matched P.
	MobilityModelsResult = experiments.MobilityModelsResult
	// Fig6SeedsResult aggregates Figure 6 over repeated seeds.
	Fig6SeedsResult = experiments.Fig6SeedsResult
	Fig2Result      = experiments.Fig2Result
	Fig6Result      = experiments.Fig6Result
	Fig7Result      = experiments.Fig7Result
	Fig8Result      = experiments.Fig8Result
	TheoryResult    = experiments.TheoryResult
)

// Experiment scales.
const (
	Fast  = experiments.Fast
	Paper = experiments.Paper
)

// NewTaskSetup builds the setup for one of the four paper tasks.
func NewTaskSetup(task TaskName, scale Scale, seed int64) *TaskSetup {
	return experiments.NewTaskSetup(task, scale, seed)
}

// RunFig1 reproduces the paper's Figure 1 motivation experiment.
func RunFig1(cfg experiments.Fig1Config) Fig1Result { return experiments.RunFig1(cfg) }

// RunFig2 reproduces the paper's Figure 2 motivation experiment.
func RunFig2(cfg experiments.Fig2Config) Fig2Result { return experiments.RunFig2(cfg) }

// RunFig6 reproduces one task of the paper's Figure 6 comparison.
func RunFig6(setup *TaskSetup, strategies []Strategy, p float64, seed int64, steps int) Fig6Result {
	return experiments.RunFig6(setup, strategies, p, seed, steps)
}

// RunFig6Seeds repeats the Figure 6 experiment across seeds and
// aggregates mean ± std bands, matching the paper's averaged-with-shades
// presentation.
func RunFig6Seeds(task TaskName, scale Scale, strategies []Strategy, p float64, seeds []int64, steps int) Fig6SeedsResult {
	return experiments.RunFig6Seeds(task, scale, strategies, p, seeds, steps)
}

// RunFig7 reproduces one task of the paper's Figure 7 mobility sweep.
func RunFig7(setup *TaskSetup, strategies []Strategy, ps []float64, seed int64, steps int) Fig7Result {
	return experiments.RunFig7(setup, strategies, ps, seed, steps)
}

// RunFig8 reproduces one task of the paper's Figure 8 T_c sweep.
func RunFig8(setup *TaskSetup, strategies []Strategy, tcs []int, p float64, seed int64, steps int) Fig8Result {
	return experiments.RunFig8(setup, strategies, tcs, p, seed, steps)
}

// RunTheory validates the §5 analysis on the convex objective.
func RunTheory(cfg experiments.TheoryConfig) TheoryResult { return experiments.RunTheory(cfg) }

// RunAblation isolates MIDDLE's two mechanisms on one task.
func RunAblation(setup *TaskSetup, p float64, seed int64, steps int) AblationResult {
	return experiments.RunAblation(setup, p, seed, steps)
}

// RunMobilityModels compares MIDDLE under Markov vs random-waypoint
// mobility at matched empirical P.
func RunMobilityModels(setup *TaskSetup, targetP float64, seed int64, steps int) MobilityModelsResult {
	return experiments.RunMobilityModels(setup, targetP, seed, steps)
}

// Fig1Config and friends re-export the experiment configurations.
type (
	// Fig1Config sizes the Figure 1 experiment.
	Fig1Config = experiments.Fig1Config
	// Fig2Config sizes the Figure 2 experiment.
	Fig2Config = experiments.Fig2Config
	// TheoryConfig sizes the §5 validation sweep.
	TheoryConfig = experiments.TheoryConfig
)

// TheoremBound evaluates the Theorem 1 right-hand side.
func TheoremBound(p theory.BoundParams) float64 { return theory.Bound(p) }

// BoundParams carries the Theorem 1 constants.
type BoundParams = theory.BoundParams

// --- checkpoints ------------------------------------------------------------

// SaveModel writes a named parameter vector in the repository's
// checksummed checkpoint format: a state record of just name and model.
func SaveModel(w io.Writer, name string, vec []float64) error {
	return checkpoint.SaveState(w, checkpoint.State{Name: name, Model: vec})
}

// --- reporting -----------------------------------------------------------

// Smooth returns a centred moving average (paper-style curve smoothing).
func Smooth(y []float64, window int) []float64 { return eval.Smooth(y, window) }

// SpeedupTable renders the §6.2.1-style comparison table.
func SpeedupTable(results []TTAResult, refName string, target float64) string {
	return eval.SpeedupTable(results, refName, target)
}

// LineChart renders series as an ASCII chart.
func LineChart(title string, series []Series, width, height int) string {
	return eval.LineChart(title, series, width, height)
}

// BarChart renders grouped horizontal bars.
func BarChart(title string, labels, groups []string, values [][]float64, width int) string {
	return eval.BarChart(title, labels, groups, values, width)
}

// WriteSeriesCSV emits series as CSV.
func WriteSeriesCSV(w io.Writer, series []Series) error { return eval.WriteSeriesCSV(w, series) }

// ReadSeriesCSV parses WriteSeriesCSV output.
func ReadSeriesCSV(r io.Reader) ([]Series, error) { return eval.ReadSeriesCSV(r) }

// ReadHistoryCSV parses History.WriteCSV output (step, accuracy,
// communication, phase-time and learning-dynamics telemetry columns).
func ReadHistoryCSV(r io.Reader) (*History, error) { return hfl.ReadHistoryCSV(r) }
