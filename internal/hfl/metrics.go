package hfl

import (
	"time"

	"middle/internal/obs"
)

// PhaseTimes holds cumulative wall-clock seconds spent in each phase of
// StepOnce since the simulation started. The breakdown is always
// maintained (a handful of clock reads per ~10ms step) so every run can
// report where its time went, with or without a metrics registry.
type PhaseTimes struct {
	// Select covers membership bookkeeping and device selection
	// (Algorithm 1 lines 1–2). The mobility draw of M^{t+1} is not in
	// it: it runs beside step t's later phases, inside their wall time.
	// Only a step that finds no membership drawn for it (the first, and
	// any past Config.Steps) draws its own here.
	Select float64
	// Train covers the parallel local-SGD fan-out (lines 4–8).
	Train float64
	// EdgeAgg covers per-edge weighted aggregation (line 9, Eq. 6).
	EdgeAgg float64
	// CloudSync covers cloud aggregation and the downward broadcast
	// (lines 10–15, Eq. 7).
	CloudSync float64
	// Eval covers periodic global/edge model evaluation.
	Eval float64
}

// simMetrics bundles the simulation's obs instruments. Built from a nil
// registry every instrument is nil and all recording methods no-op, so
// StepOnce updates them unconditionally.
type simMetrics struct {
	steps      *obs.Counter
	selected   *obs.Counter
	moves      *obs.Counter
	moveOpp    *obs.Counter
	cloudSyncs *obs.Counter
	evals      *obs.Counter

	// Robustness layer: adversary corruptions and skipped non-finite SGD
	// steps (the robust_* series belong to the shared robust.Point).
	advCorruptions *obs.Counter
	nonfiniteSteps *obs.Counter

	selectSpan    *obs.Span
	trainSpan     *obs.Span
	edgeAggSpan   *obs.Span
	cloudSyncSpan *obs.Span
	evalSpan      *obs.Span

	// roundSpan times whole StepOnce rounds (sim_round_seconds): the
	// tsdb synthesizes sim_round_seconds_p99 from it, which the default
	// SLO latency rule gates on.
	roundSpan *obs.Span
	// globalAcc mirrors the latest global evaluation
	// (hfl_global_accuracy) so dashboards and the accuracy-stall SLO
	// see learning progress as an ordinary series.
	globalAcc *obs.Gauge
}

func newSimMetrics(r *obs.Registry) simMetrics {
	return simMetrics{
		steps:      r.Counter("sim_steps_total"),
		selected:   r.Counter("sim_selected_total"),
		moves:      r.Counter("sim_moves_total"),
		moveOpp:    r.Counter("sim_move_opportunities_total"),
		cloudSyncs: r.Counter("sim_cloud_syncs_total"),
		evals:      r.Counter("sim_evals_total"),

		advCorruptions: r.Counter("hfl_adversary_corruptions_total"),
		nonfiniteSteps: r.Counter("hfl_nonfinite_steps_total"),

		selectSpan:    r.Span("sim_phase_seconds", "phase", "selection"),
		trainSpan:     r.Span("sim_phase_seconds", "phase", "local_train"),
		edgeAggSpan:   r.Span("sim_phase_seconds", "phase", "edge_agg"),
		cloudSyncSpan: r.Span("sim_phase_seconds", "phase", "cloud_sync"),
		evalSpan:      r.Span("sim_phase_seconds", "phase", "eval"),

		roundSpan: r.Span("sim_round_seconds"),
		globalAcc: r.Gauge("hfl_global_accuracy"),
	}
}

// phase records one phase occurrence in both the always-on accumulator
// and (when enabled) the obs span, returning the current time so
// consecutive phases chain without extra clock reads.
func phase(acc *float64, span *obs.Span, start time.Time) time.Time {
	now := time.Now()
	d := now.Sub(start)
	*acc += d.Seconds()
	span.Observe(d)
	return now
}
