package main

import (
	"math"
	"runtime"
	"time"
)

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedDetail turns a traced run into the per-layer metrics. pure is
// the untraced run of the same workload and seed made just before it,
// spans are the traced run's, rungs the isolated layer timings.
func tracedDetail(w *workload, seed int64, seconds time.Duration, pure, m *measured, spans []span, rungs map[string]float64) *runDetail {
	d := newDetail(w, seed, seconds, m)
	d.Traced = true
	rounds := float64(max(len(m.rounds), 1))
	by := totalsByName(spans)
	perRoundMS := func(name string) float64 { return ms(by[name].total) / rounds }

	out := make(map[string]float64, len(perLayer))
	for name, v := range rungs {
		out[name] = v
	}
	out["mobility.step_ms"] = ratio(ms(by["mobility.step"].total), float64(by["mobility.step"].count))
	out["mobility.moves_per_round"] = float64(m.moves) / rounds
	out["core.select_ms_per_round"] = perRoundMS("core.select")
	out["core.init_local_ms_per_round"] = perRoundMS("core.init_local")
	out["core.blend_calls"] = float64(m.blends)

	// What StepOnce spends outside the decorated calls and outside its
	// train, aggregation, sync and evaluation phases: the engine's own
	// membership scan and candidate building.
	ph := m.phases
	inPhases := time.Duration((ph.Train + ph.EdgeAgg + ph.CloudSync + ph.Eval) * float64(time.Second))
	if step := by["hfl.step"]; step.count > 0 {
		out["hfl.step_self_ms"] = ms(step.self-inPhases) / rounds
	}
	out["hfl.select_phase_s"] = ph.Select
	out["hfl.train_phase_s"] = ph.Train
	out["hfl.edge_agg_phase_s"] = ph.EdgeAgg
	out["hfl.cloud_sync_phase_s"] = ph.CloudSync
	out["hfl.peak_resident_models"] = float64(m.peakResident)
	out["hfl.eval_ms"] = ratio(ms(m.evalTime), float64(m.evals))

	nc := m.net
	out["fednet.device_edge_mb_per_round"] = nc.linkBytes["device_edge"] / rounds / 1e6
	out["fednet.edge_cloud_mb_per_round"] = nc.linkBytes["edge_cloud"] / rounds / 1e6
	out["fednet.edge_edge_mb_per_round"] = nc.linkBytes["edge_edge"] / rounds / 1e6
	out["fednet.msgs_per_round"] = nc.msgs / rounds
	out["fednet.train_rpc_ms_mean"] = nc.trainRPC * 1e3
	out["fednet.device_train_ms_mean"] = nc.deviceTrain * 1e3
	if nc.trainRPC > 0 {
		out["fednet.rpc_wait_share"] = 1 - nc.deviceTrain/nc.trainRPC
	}
	out["fednet.edge_round_ms_mean"] = nc.edgeRound * 1e3
	out["fednet.cloud_round_ms_mean"] = nc.cloudRound * 1e3
	out["fednet.cluster_start_s"] = nc.clusterStart.Seconds()
	out["fednet.retries_per_round"] = nc.retries / rounds
	out["fednet.reconnects_per_round"] = nc.reconns / rounds
	out["fednet.train_rpc_goodput"] = ratio(float64(m.completed), float64(m.selected))
	out["fednet.handover_ms_mean"] = nc.handover * 1e3
	out["fednet.migrations_ok"] = float64(nc.migOK)
	out["fednet.migrations_fallback"] = float64(nc.migFallback)
	out["fednet.migrations_rejected"] = float64(nc.migRejected)

	// Same work, tracing off then on: the ratio of the two rates is
	// what looking costs.
	pureRate := ratio(float64(len(pure.rounds)), pure.wall.Seconds())
	out["obs.trace_overhead_ratio"] = ratio(pureRate, ratio(rounds, m.wall.Seconds()))
	if run := by["run"]; run.total > 0 {
		out["obs.span_coverage_ratio"] = 1 - float64(run.self)/float64(run.total)
	}

	// Residual: the share of a median round that the rungs do not
	// explain. Trainings run nproc at a time; aggregation and codec work
	// is spread over the same cores.
	roundMS := m.roundMS()
	p50 := percentile(roundMS, 50)
	out["round_ms_p90"] = percentile(roundMS, 90)
	nproc := float64(runtime.GOMAXPROCS(0))
	cohort := float64(m.completed) / rounds
	explained := math.Ceil(cohort/nproc) * out["nn.local_round_ms"]
	if w.net {
		frames := ratio(m.wireBytes/rounds, out["fednet.frame_bytes"])
		codec := frames * (out["fednet.frame_encode_us"] + out["fednet.frame_decode_us"]) / 1e3
		agg := float64(w.edges) * out["robust.aggregate_us"] / 1e3
		out["fednet.round_residual_ratio"] = 1 - ratio(explained+(codec+agg)/nproc, p50)
	} else {
		agg := cohort * out["simil.accumulator_add_us"] / 1e3
		out["hfl.step_residual_ratio"] = 1 - ratio(explained+agg, p50)
	}

	for _, pm := range perLayer {
		if _, ok := out[pm.Name]; !ok {
			out[pm.Name] = 0 // a layer this workload does not run
		}
	}
	d.Metrics = out
	d.Samples = map[string]int{
		"mobility.step_ms": by["mobility.step"].count, "core.select_ms_per_round": by["core.select"].count,
		"core.init_local_ms_per_round": by["core.init_local"].count, "hfl.eval_ms": m.evals,
		"round_ms_p90": len(roundMS),
	}
	d.finalize()
	return d
}
