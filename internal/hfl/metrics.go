package hfl

import (
	"strconv"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/flight"
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

	// phaseSpans times each StepOnce phase (sim_phase_seconds), indexed
	// like stepPhases.
	phaseSpans [len(stepPhases)]*obs.Span

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
	m := simMetrics{
		steps:      r.Counter("sim_steps_total"),
		selected:   r.Counter("sim_selected_total"),
		moves:      r.Counter("sim_moves_total"),
		moveOpp:    r.Counter("sim_move_opportunities_total"),
		cloudSyncs: r.Counter("sim_cloud_syncs_total"),
		evals:      r.Counter("sim_evals_total"),

		advCorruptions: r.Counter("hfl_adversary_corruptions_total"),
		nonfiniteSteps: r.Counter("hfl_nonfinite_steps_total"),

		roundSpan: r.Span("sim_round_seconds"),
		globalAcc: r.Gauge("hfl_global_accuracy"),
	}
	for ph, names := range stepPhases {
		m.phaseSpans[ph] = r.Span("sim_phase_seconds", "phase", names.label)
	}
	return m
}

// StepOnce's phases, in order, and phaseNone, which is none of them.
const (
	phaseSelect = iota
	phaseTrain
	phaseEdgeAgg
	phaseCloudSync
	phaseEval
	phaseNone = -1
)

// stepPhases names each phase twice: its trace span, and its pprof label,
// which is also its sim_phase_seconds label.
var stepPhases = [...]struct{ span, label string }{
	{"select", "selection"}, {"train", "local_train"}, {"edge_agg", "edge_agg"}, {"cloud_sync", "cloud_sync"}, {"eval", "eval"},
}

// seconds returns phase ph's accumulator.
func (p *PhaseTimes) seconds(ph int) *float64 {
	return [...]*float64{&p.Select, &p.Train, &p.EdgeAgg, &p.CloudSync, &p.Eval}[ph]
}

// phaseClock times step t's phases back to back, from the selection phase
// on. Each phase is added to PhaseTimes and its sim_phase_seconds span,
// leaves a trace span under the round's, and runs under its pprof label,
// so the continuous profiler splits CPU and allocations the same way.
type phaseClock struct {
	s     *Sim
	t, ph int
	start time.Time
	fp    flight.PhaseToken
}

// enter ends the running phase and begins ph (nothing for phaseNone).
func (c *phaseClock) enter(ph int) {
	c.fp.End()
	now := time.Now()
	d := now.Sub(c.start)
	*c.s.phases.seconds(c.ph) += d.Seconds()
	c.s.metrics.phaseSpans[c.ph].Observe(d)
	if tr := c.s.cfg.Trace; tr != nil {
		rid, name := "r"+strconv.Itoa(c.t), stepPhases[c.ph].span
		tr.Complete(name, "hfl", 0, 0, c.start, d, rid+"."+name, rid, nil)
	}
	c.ph, c.start = ph, now
	if ph != phaseNone {
		c.fp = flight.BeginPhase(stepPhases[ph].label)
	}
}
