package core

import (
	"middle/internal/hfl"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// MIDDLE combines two mechanisms; the ablation strategies isolate each
// so their individual contributions can be measured (the "ablation"
// targets of DESIGN.md).

// MiddleSelOnly keeps MIDDLE's Eq. 12 similarity-guided device selection
// but disables on-device aggregation (moved devices adopt the edge model
// directly, as in classical HFL).
type MiddleSelOnly struct{}

// NewMiddleSelOnly returns the selection-only ablation.
func NewMiddleSelOnly() *MiddleSelOnly { return &MiddleSelOnly{} }

// Name implements hfl.Strategy.
func (*MiddleSelOnly) Name() string { return "MIDDLE-Sel" }

// Select implements Eq. 12, via the hfl.SelectionInfo fast path.
func (*MiddleSelOnly) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	info := hfl.SelectionInfo(v)
	return hfl.TopKByScore(candidates, func(m int) float64 {
		u, _ := info(m)
		return -u
	}, k, rng)
}

// InitLocal always starts from the downloaded edge model.
func (*MiddleSelOnly) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	return v.EdgeModel(edge)
}

// MiddleAggOnly keeps MIDDLE's Eq. 9 similarity-weighted on-device
// aggregation but replaces the selection with uniform random sampling.
type MiddleAggOnly struct{}

// NewMiddleAggOnly returns the aggregation-only ablation.
func NewMiddleAggOnly() *MiddleAggOnly { return &MiddleAggOnly{} }

// Name implements hfl.Strategy.
func (*MiddleAggOnly) Name() string { return "MIDDLE-Agg" }

// Select picks devices uniformly at random.
func (*MiddleAggOnly) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return hfl.RandomK(candidates, k, rng)
}

// InitLocal implements Eq. 9 for moved devices.
func (*MiddleAggOnly) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	edgeModel := v.EdgeModel(edge)
	if !moved {
		return edgeModel
	}
	agg, _ := simil.OnDeviceAggregate(edgeModel, v.LocalModel(device))
	return agg
}

// AblationSet returns MIDDLE, its two single-mechanism ablations and the
// no-mechanism control in comparison order.
func AblationSet() []hfl.Strategy {
	return []hfl.Strategy{NewMiddle(), NewMiddleSelOnly(), NewMiddleAggOnly(), NewGeneral()}
}
