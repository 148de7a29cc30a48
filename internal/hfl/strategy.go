package hfl

import (
	"sync"

	"middle/internal/simil"
	"middle/internal/tensor"
)

// View is the read-only window a Strategy gets into the simulation state.
// It exposes exactly the information the paper's policies need: model
// vectors (never raw device data — the privacy constraint of §4.3),
// participation history and data sizes.
type View interface {
	// Step returns the 1-based time step being decided: t while the
	// engine selects and trains round t (the simulator's Sim.Step during
	// StepOnce, a deployment edge's round).
	Step() int
	// CloudModel returns the current global model vector w_c.
	CloudModel() []float64
	// EdgeModel returns edge n's current model vector w_n.
	EdgeModel(edge int) []float64
	// LocalModel returns device m's carried local model vector w_m
	// (possibly stale — the device may not have trained recently).
	LocalModel(device int) []float64
	// DataSize returns d_m, the number of samples on device m.
	DataSize(device int) int
	// StatUtility returns the Oort-style statistical utility from the
	// device's most recent training round, or NaN if it never trained
	// since the last reset.
	StatUtility(device int) float64
	// LastTrained returns the time step at which the device last
	// performed local training, or -1.
	LastTrained(device int) int
}

// NormCapView is optionally implemented by views whose configuration
// bounds the Eq. 12 selection score (Config.SelectionNormCap). When the
// cap is positive, norm-aware strategies assign devices with
// ‖w_m − w_c‖ above it the CappedScore, ranking them strictly below
// every in-bound device. This closes the selector's attacker affinity:
// Eq. 12 prefers the most divergent updates, which is exactly what
// Byzantine devices produce.
type NormCapView interface {
	// SelectionNormCap returns the ‖Δw_m‖ bound, or 0 for no cap.
	SelectionNormCap() float64
}

// CappedScore is the Eq. 12 score assigned to devices over the
// selection norm cap — strictly below the honest score range [−1, 0].
const CappedScore = -2

// ResidentView is optionally implemented by views backed by a lazy
// device store (Config.LazyStore). DriftInfo short-circuits the Eq. 12
// reduction for devices whose accumulated update is knowable without an
// O(dim) sweep: a device that has not trained since the last cloud sync
// carries exactly the cloud model, so its utility and ‖Δw_m‖ are
// exactly 0 — the same bits simil.SelectionUtilityNorm returns on the
// full vectors — and an evicted device answers from its compact drift
// record. known=false means the caller must compute from the vectors.
type ResidentView interface {
	DriftInfo(device int) (utility, deltaNorm float64, known bool)
}

// SelectionInfo returns the Eq. 12 scoring of v's devices: the
// similarity utility U(w_c, Δw_m) and update norm ‖Δw_m‖ of a device,
// from the view's ResidentView fast path when it has one and the fused
// full-vector reduction otherwise. Selection strategies score thousands
// of candidates per step at population scale; the fast path is what
// keeps that sweep cohort-bounded, and resolving it once per Select
// keeps a type assertion out of the per-candidate call.
func SelectionInfo(v View) func(device int) (utility, deltaNorm float64) {
	rv, _ := v.(ResidentView)
	return func(device int) (float64, float64) {
		if rv != nil {
			if u, dn, known := rv.DriftInfo(device); known {
				return u, dn
			}
		}
		return simil.SelectionUtilityNorm(v.CloudModel(), v.LocalModel(device))
	}
}

// Strategy is the policy slot of Algorithm 1: which devices each edge
// selects (line 2) and what starting model a selected device uses for
// local training (lines 4–7).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Select returns at most k device ids from candidates (the devices
	// currently inside the edge) to participate in this time step. rng
	// is a per-(step, edge) deterministic stream for tie-breaking or
	// random selection, valid for the call only (the simulator re-seeds
	// one generator per worker). Select is called concurrently for different
	// edges — by the simulator from up to Config.Parallelism goroutines
	// within a step, by a deployment's edges each on their own — so it
	// must not write shared state unsynchronised, and its result must
	// depend only on its arguments, never on the order of the calls.
	// The view is not written while any Select of the step is running.
	// candidates is the engine's scratch, valid for the call only: a
	// strategy may reorder it or return a sub-slice of it, and the engine
	// copies the result before it reuses the scratch.
	Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int
	// InitLocal returns the model vector the device starts local
	// training from this step. moved reports whether the device entered
	// this edge since the previous time step (m ∉ M^{t−1}_n). The engine
	// only reads the result, and only until the device's local round has
	// loaded it into a network; nothing writes the view's vectors before
	// then (the simulator aggregates into edge models only after the
	// train phase, a fednet device releases the downloaded payload only
	// after its round). So a strategy that does not blend returns the
	// view's own vector — v.EdgeModel(edge) or v.LocalModel(device) —
	// not a copy, and must neither keep nor write what it returns. In a
	// fednet deployment the device itself makes this call, on a view
	// that knows only EdgeModel (the model just downloaded) and
	// LocalModel (the one it carried here); every other accessor returns
	// its zero value.
	InitLocal(v View, device, edge int, moved bool) []float64
}

// scorePool holds TopKByScore's score scratch, index-aligned with the
// shuffled candidates, so that concurrent per-edge selections each reuse
// one population-sized slice.
var scorePool = sync.Pool{New: func() any { return new([]float64) }}

// TopKByScore returns the (at most k) candidate ids with the highest
// scores, breaking ties by the shuffled order. It is the TOPK(·) of
// paper Eq. 12 and is shared by several strategies. It shuffles
// candidates in place and reorders them further, as Strategy.Select's
// contract allows: the caller's order is not kept. score is called once
// per candidate, in the shuffled order; the returned slice is the
// caller's. Safe for concurrent use on distinct candidate slices.
func TopKByScore(candidates []int, score func(device int) float64, k int, rng *tensor.RNG) []int {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	idx := candidates
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	sp := scorePool.Get().(*[]float64)
	scores := (*sp)[:0]
	for _, m := range idx {
		scores = append(scores, score(m))
	}
	// Stable selection sort of the shuffled order: O(n·k) with k small.
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(scores); j++ {
			if scores[j] > scores[best] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
		scores[i], scores[best] = scores[best], scores[i]
	}
	*sp = scores
	scorePool.Put(sp)
	return append([]int(nil), idx[:k]...)
}

// RandomK returns k candidate ids drawn uniformly without replacement
// (all of them if k exceeds the count): the first k of the candidates
// shuffled by rng. The shuffle runs in place, so candidates' order is not
// kept and a call allocates only the returned k-slice, which is the
// caller's.
func RandomK(candidates []int, k int, rng *tensor.RNG) []int {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	return append([]int(nil), candidates[:min(k, len(candidates))]...)
}
