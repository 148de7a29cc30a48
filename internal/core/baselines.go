package core

import (
	"math"

	"middle/internal/hfl"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// oortSelect is the Oort-style statistical-utility selection the paper's
// OORT, Greedy and Ensemble baselines share (§6.1.3): pick the K devices
// with the highest utility d_m·sqrt(mean loss²) from their latest
// training round. Devices that have never trained get +Inf so they are
// explored first (Oort's exploration term with equal system utilities).
func oortSelect(v hfl.View, candidates []int, k int, rng *tensor.RNG) []int {
	return hfl.TopKByScore(candidates, func(m int) float64 {
		u := v.StatUtility(m)
		if math.IsNaN(u) {
			return math.Inf(1)
		}
		return u
	}, k, rng)
}

// Oort is the paper's OORT baseline: statistical-utility top-K selection
// and no on-device aggregation — moved devices adopt the edge model
// directly.
type Oort struct{}

// NewOort returns the OORT baseline strategy.
func NewOort() *Oort { return &Oort{} }

// Name implements hfl.Strategy.
func (*Oort) Name() string { return "OORT" }

// Select implements statistical-utility top-K selection.
func (*Oort) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return oortSelect(v, candidates, k, rng)
}

// InitLocal always starts from the downloaded edge model.
func (*Oort) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	return v.EdgeModel(edge)
}

// FedMes adapts Han et al.'s multi-edge-server scheme to the mobility
// setting as the paper does: devices moving across edges play the role
// of overlap devices and average the two models 50/50; selection is
// uniformly random.
type FedMes struct{}

// NewFedMes returns the FedMes baseline strategy.
func NewFedMes() *FedMes { return &FedMes{} }

// Name implements hfl.Strategy.
func (*FedMes) Name() string { return "FedMes" }

// Select picks devices uniformly at random.
func (*FedMes) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return hfl.RandomK(candidates, k, rng)
}

// InitLocal averages edge and carried models 50/50 for moved devices.
func (*FedMes) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	if !moved {
		return v.EdgeModel(edge)
	}
	return simil.Blend(v.EdgeModel(edge), v.LocalModel(device), 0.5)
}

// Greedy keeps the carried local model wholesale when a device moves
// (no blending at all) and selects by statistical utility, as in the
// paper's Greedy baseline.
type Greedy struct{}

// NewGreedy returns the Greedy baseline strategy.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements hfl.Strategy.
func (*Greedy) Name() string { return "Greedy" }

// Select implements statistical-utility top-K selection.
func (*Greedy) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return oortSelect(v, candidates, k, rng)
}

// InitLocal keeps the carried local model entirely for moved devices.
func (*Greedy) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	if !moved {
		return v.EdgeModel(edge)
	}
	return v.LocalModel(device)
}

// Ensemble combines OORT selection with FedMes-style 50/50 on-device
// averaging, the paper's fourth baseline.
type Ensemble struct{}

// NewEnsemble returns the Ensemble baseline strategy.
func NewEnsemble() *Ensemble { return &Ensemble{} }

// Name implements hfl.Strategy.
func (*Ensemble) Name() string { return "Ensemble" }

// Select implements statistical-utility top-K selection.
func (*Ensemble) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return oortSelect(v, candidates, k, rng)
}

// InitLocal averages edge and carried models 50/50 for moved devices.
func (*Ensemble) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	if !moved {
		return v.EdgeModel(edge)
	}
	return simil.Blend(v.EdgeModel(edge), v.LocalModel(device), 0.5)
}

// General is classical HFL (the "General" method of the paper's
// motivation §2): random selection, no on-device aggregation.
type General struct{}

// NewGeneral returns the plain-HFL strategy.
func NewGeneral() *General { return &General{} }

// Name implements hfl.Strategy.
func (*General) Name() string { return "General" }

// Select picks devices uniformly at random.
func (*General) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return hfl.RandomK(candidates, k, rng)
}

// InitLocal always starts from the downloaded edge model.
func (*General) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	return v.EdgeModel(edge)
}

// FixedAlpha blends every moved device's models with a constant
// coefficient α (local-model weight), the simplification the paper's
// theoretical analysis (§5) studies. With α = 0.5 it coincides with
// FedMes/Ensemble initialisation; selection is random so aggregation is
// the only treatment.
type FixedAlpha struct {
	Alpha float64
}

// NewFixedAlpha returns the fixed-α analysis strategy.
func NewFixedAlpha(alpha float64) *FixedAlpha { return &FixedAlpha{Alpha: alpha} }

// Name implements hfl.Strategy.
func (f *FixedAlpha) Name() string { return "FixedAlpha" }

// Select picks devices uniformly at random.
func (f *FixedAlpha) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	return hfl.RandomK(candidates, k, rng)
}

// InitLocal blends with the constant coefficient for moved devices.
func (f *FixedAlpha) InitLocal(v hfl.View, device, edge int, moved bool) []float64 {
	if !moved {
		return v.EdgeModel(edge)
	}
	return simil.Blend(v.EdgeModel(edge), v.LocalModel(device), f.Alpha)
}
