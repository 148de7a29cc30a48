// Package hfl implements the device-edge-cloud hierarchical federated
// learning engine of the MIDDLE paper (Algorithm 1): mobile devices run
// local SGD, edges aggregate the selected devices' models every time
// step (Eq. 6), and the cloud aggregates edge models every T_c steps
// (Eq. 7). The engine is parameterised by a Strategy — the device
// selection and on-device model-initialisation policy — which is where
// MIDDLE and the paper's baselines differ (see internal/core).
package hfl

import (
	"fmt"
	"runtime"

	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/optim"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// OptimizerKind selects the local optimizer family.
type OptimizerKind string

// Supported local optimizers (paper §6.1.2: SGD+momentum 0.9 for the
// image tasks, Adam for the speech task).
const (
	OptSGD         OptimizerKind = "sgd"
	OptSGDMomentum OptimizerKind = "sgd-momentum"
	OptAdam        OptimizerKind = "adam"
)

// OptimizerSpec configures the per-round local optimizer.
type OptimizerSpec struct {
	Kind     OptimizerKind
	LR       float64
	Momentum float64 // used by OptSGDMomentum
}

// New constructs a fresh optimizer from the spec.
func (s OptimizerSpec) New() optim.Optimizer {
	switch s.Kind {
	case OptSGD, "":
		return optim.NewSGD(s.LR)
	case OptSGDMomentum:
		return optim.NewSGDMomentum(s.LR, s.Momentum)
	case OptAdam:
		return optim.NewAdam(s.LR)
	default:
		panic(fmt.Sprintf("hfl: unknown optimizer kind %q", s.Kind))
	}
}

// Config holds the simulation hyper-parameters of Algorithm 1.
type Config struct {
	Seed int64

	// K is the number of devices each edge selects per time step
	// (paper: K = 5).
	K int
	// LocalSteps is I, the local SGD updates per time step (paper: 10).
	LocalSteps int
	// CloudInterval is T_c, the edge–cloud synchronisation period in
	// time steps (paper: 10).
	CloudInterval int
	// BatchSize is the ξ mini-batch size per local update.
	BatchSize int
	// Steps is the total number of time steps to simulate.
	Steps int

	// EvalEvery evaluates the global model each time this many steps
	// elapse (and always at the final step). 0 disables periodic eval.
	EvalEvery int
	// EvalSamples caps how many test samples each evaluation uses
	// (0 = the whole test set).
	EvalSamples int
	// EvalEdges additionally records each edge model's accuracy.
	EvalEdges bool
	// EvalPerClass additionally records global per-class accuracy.
	EvalPerClass bool

	// Parallelism bounds the worker pool (0 = GOMAXPROCS) that a step
	// fans both its per-edge Strategy.Select calls and its device
	// training out over. Results do not depend on it.
	Parallelism int

	Optimizer OptimizerSpec
	// LRSchedule, when set, overrides the optimizer's learning rate at
	// every time step (e.g. the inverse decay η_t = η₀γ/(γ+t) of the
	// paper's Theorem 1). Nil keeps the constant Optimizer.LR.
	LRSchedule optim.Schedule

	// Aggregator selects the Eq. 6/Eq. 7 combiner: "" or "mean" (the
	// paper's weighted mean, bit-identical to previous releases) or
	// "trimmed-mean" (see internal/robust for what it tolerates).
	Aggregator robust.AggregatorKind
	// Validate screens received updates before aggregation: non-finite
	// models are always rejected when enabled, and NormBound > 0
	// additionally rejects updates whose norm exceeds
	// NormBound·median(norms) that round. Rejected updates are left out
	// of Eq. 6/Eq. 7. Off by default.
	Validate robust.ValidatorConfig
	// Adversary, when Fraction > 0, marks a seeded subset of devices as
	// Byzantine: after local training each sign-flips its upload around
	// the cloud model. Off by default.
	Adversary robust.Adversary
	// SelectionNormCap, when > 0, caps the Eq. 12 selection score of
	// devices whose accumulated-update norm ‖w_m − w_c‖ exceeds it:
	// such devices rank strictly below every in-bound device. This
	// counters the selector's attacker affinity — Eq. 12 otherwise
	// prefers exactly the divergent updates adversaries produce.
	SelectionNormCap float64

	// LazyStore selects the population-scale device store: carried
	// models are materialized only for devices that train between cloud
	// syncs (the selected cohorts); everyone else shares the cloud
	// vector. Because every cloud sync overwrites every carried model
	// with the global model, runs with LazyStore on (and ResidentCap
	// 0) are bit-identical to the dense engine while per-round memory
	// scales with cohort size instead of the device count.
	LazyStore bool
	// ResidentCap, when > 0, bounds how many materialized device
	// vectors the lazy store keeps (implies LazyStore). At step end the
	// least-recently-trained residents beyond the cap are evicted to a
	// compact drift record (their Eq. 12 utility and ‖Δw_m‖ at eviction
	// time), which selection keeps using; an evicted mover re-blends
	// against the cloud model instead of its carried one. The cap must
	// hold at least one full cohort (K × edges) — New panics otherwise.
	ResidentCap int

	// Obs, when set, receives run metrics: per-phase wall time
	// (sim_phase_seconds{phase=...}), step/selection/mobility counters, cloud-sync counts, and the learning-dynamics series
	// (hfl_selection_utility, hfl_update_norm, hfl_blend_utility,
	// hfl_edge_divergence{edge}, hfl_selection_fairness_jain,
	// hfl_mobility_flow_total{from,to}). Nil (the default) disables
	// metrics at near-zero cost; the always-on PhaseTimes breakdown and
	// History telemetry columns remain available either way.
	Obs *obs.Registry

	// Events, when set, receives the per-run telemetry JSONL stream: one
	// "round" event per time step with that round's selection-utility /
	// update-norm / blend-utility means, and one "eval" event per
	// evaluation with accuracy, per-edge divergence, fairness and the
	// cumulative edge→edge mobility flow matrix. Nil disables the stream
	// with zero steady-state cost.
	Events *obs.Emitter

	// Trace, when set, records each time step as a Chrome trace-event
	// span tree (round → select/train/edge_agg/cloud_sync/eval) for
	// /debug/trace and -trace-out. Nil disables tracing with zero
	// steady-state cost.
	Trace *obs.Trace
}

// withDefaults fills unset fields with safe values and validates.
func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 5
	}
	if c.LocalSteps <= 0 {
		c.LocalSteps = 10
	}
	if c.CloudInterval <= 0 {
		c.CloudInterval = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Optimizer.LR <= 0 {
		c.Optimizer = OptimizerSpec{Kind: OptSGDMomentum, LR: 0.01, Momentum: 0.9}
	}
	if c.ResidentCap < 0 {
		panic(fmt.Sprintf("hfl: negative ResidentCap %d", c.ResidentCap))
	}
	if c.ResidentCap > 0 {
		c.LazyStore = true
	}
	return c
}

// ModelFactory builds one instance of the task's network architecture.
// All instances must have identical parameter layout; the engine
// overwrites their weights with model vectors.
type ModelFactory func(rng *tensor.RNG) *nn.Network
