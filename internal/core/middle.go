// Package core implements the MIDDLE strategy — mobility-driven
// on-device model aggregation (paper Eq. 9) plus similarity-guided
// in-edge device selection (Eq. 12) — together with the four baselines
// the paper compares against (§6.1.3): OORT, FedMes, Greedy and
// Ensemble, and the plain "General" HFL policy used in the motivation
// experiments.
package core

import (
	"middle/internal/hfl"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// Middle is the paper's proposed strategy.
//
//   - Selection: each edge picks the K devices whose accumulated update
//     Δw_m = w_m − w_c is *least* similar to the cloud model
//     (TOPK(−U(w_c, Δw_m)), Eq. 12) — devices carrying information the
//     global model has not absorbed yet.
//   - Initialisation: a device that moved across edges blends the
//     downloaded edge model with its carried local model using the
//     similarity utility as the blending weight (Eq. 9); devices that
//     stayed start from the edge model as in classical HFL.
type Middle struct{}

// NewMiddle returns the MIDDLE strategy.
func NewMiddle() *Middle { return &Middle{} }

// Name implements hfl.Strategy.
func (*Middle) Name() string { return "MIDDLE" }

// Select implements Eq. 12. When the view carries a selection norm cap
// (hfl.NormCapView), devices whose accumulated update exceeds the cap
// score hfl.CappedScore instead — Eq. 12's preference for divergent
// updates would otherwise hand adversaries a selection advantage.
// Scoring goes through hfl.SelectionInfo, so lazily-stored populations
// answer for untrained candidates without an O(dim) sweep.
func (*Middle) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	normCap := 0.0
	if nc, ok := v.(hfl.NormCapView); ok {
		normCap = nc.SelectionNormCap()
	}
	info := hfl.SelectionInfo(v)
	return hfl.TopKByScore(candidates, func(m int) float64 {
		u, dn := info(m)
		if normCap > 0 && dn > normCap {
			return hfl.CappedScore
		}
		return -u
	}, k, rng)
}

// InitLocal implements Eq. 9 for moved devices and the classical
// edge-model start otherwise (Algorithm 1 lines 4–7). Like every
// strategy here it returns the view's own vector when it does not blend
// (hfl.Strategy: the engine only reads the result).
func (*Middle) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	edgeModel := v.EdgeModel(edge)
	if !moved {
		return edgeModel
	}
	agg, _ := simil.OnDeviceAggregate(edgeModel, v.LocalModel(device))
	return agg
}
