// Package optim implements the optimizers the MIDDLE paper uses:
// SGD with momentum 0.9 for the image-classification tasks and Adam for
// the speech-recognition task (§6.1.2), plus learning-rate schedules.
package optim

import (
	"math"

	"middle/internal/nn"
	"middle/internal/tensor"
)

// Optimizer updates network parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently stored in
	// params and the optimizer's internal state.
	Step(params []*nn.Param)
	// Reset clears internal state (momentum buffers, Adam moments).
	// Called when a device's model is replaced wholesale, e.g. after a
	// cloud synchronisation, so stale momentum does not leak across
	// model generations.
	Reset()
	// LR returns the current learning rate.
	LR() float64
	// SetLR overrides the learning rate (used by schedules).
	SetLR(lr float64)
}

// MomentExporter is implemented by optimizers whose internal state —
// moment buffers plus the step counter — can be read out: ExportMoments
// flattens it into one new slice with per-group lengths, nothing after a
// Reset. No training path imports moments (a local round always starts
// from a reset optimizer); the export feeds checkpoint.Handover records.
type MomentExporter interface {
	ExportMoments() (flat []float64, lens []int, steps int)
}

// SGD is stochastic gradient descent with optional momentum:
// v ← µv + g; w ← w − η·v.
type SGD struct {
	lr       float64
	Momentum float64

	t        int
	velocity [][]float64
	// stale marks velocity as dropped by Reset: the buffers are kept for
	// the next Step, which starts them from zero, and count as absent
	// until then.
	stale bool
}

// NewSGD returns plain SGD with learning rate lr.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// NewSGDMomentum returns SGD with the given momentum coefficient
// (the paper uses 0.9).
func NewSGDMomentum(lr, momentum float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum}
}

// Step applies one SGD update: v ← µv + g; w ← w − η·v. With momentum it
// is tensor.MomentumStep, whose first Step after a Reset writes
// v ← µ·0 + g without reading the stale buffer; without, one loop over g
// resliced to len(w), free of bounds checks. Every product is rounded
// before its sum, so all kernel families give the same bits.
func (s *SGD) Step(params []*nn.Param) {
	s.t++
	lr, mu := s.lr, s.Momentum
	fresh := false
	if mu != 0 {
		fresh = s.ensureState(params)
	}
	for j, p := range params {
		w := p.Value.Data
		g := p.Grad.Data[:len(w)]
		if mu != 0 {
			tensor.MomentumStep(w, g, s.velocity[j], mu, lr, fresh)
			continue
		}
		for i := range w {
			w[i] -= float64(lr * g[i])
		}
	}
}

// ensureState makes the velocity mirror params and reports whether it
// holds nothing yet (new, or dropped by Reset): the Step about to run
// starts it from zero.
func (s *SGD) ensureState(params []*nn.Param) (fresh bool) {
	if !groupsMatch(s.velocity, params) {
		s.velocity, s.stale = newGroups(params), true
	}
	fresh, s.stale = s.stale, false
	return fresh
}

// Reset clears momentum buffers and the step counter.
func (s *SGD) Reset() { s.stale, s.t = true, 0 }

// ExportMoments flattens the velocity buffers.
func (s *SGD) ExportMoments() (flat []float64, lens []int, steps int) {
	if s.stale {
		return nil, nil, s.t
	}
	flat, lens = flatten(s.velocity)
	return flat, lens, s.t
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// SetLR overrides the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	lr           float64
	Beta1, Beta2 float64
	Eps          float64

	t    int
	m, v [][]float64
	// stale marks m and v as dropped by Reset (see SGD.stale).
	stale bool
}

// NewAdam returns Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update. The first Step after a Reset reads the
// stale moments as zero, m ← β₁·0 + (1−β₁)d and v ← β₂·0 + (1−β₂)d², so
// no pass clears them first. Every product is rounded before its sum.
func (a *Adam) Step(params []*nn.Param) {
	fresh := a.ensureState(params)
	a.t++
	b1, b2, c1, c2 := a.Beta1, a.Beta2, 1-a.Beta1, 1-a.Beta2
	bc1 := 1 - math.Pow(b1, float64(a.t))
	bc2 := 1 - math.Pow(b2, float64(a.t))
	lr, eps := a.lr, a.Eps
	for j, p := range params {
		w := p.Value.Data
		g, m, v := p.Grad.Data[:len(w)], a.m[j][:len(w)], a.v[j][:len(w)]
		for i := range w {
			d := g[i]
			mo, vo := m[i], v[i]
			if fresh {
				mo, vo = 0, 0
			}
			m[i] = float64(b1*mo) + float64(c1*d)
			v[i] = float64(b2*vo) + float64(float64(c2*d)*d)
			w[i] -= float64(lr*(m[i]/bc1)) / (math.Sqrt(v[i]/bc2) + eps)
		}
	}
}

// ensureState makes m and v mirror params and reports whether they hold
// nothing yet (see SGD.ensureState).
func (a *Adam) ensureState(params []*nn.Param) (fresh bool) {
	if !groupsMatch(a.m, params) || !groupsMatch(a.v, params) {
		a.m, a.v, a.stale = newGroups(params), newGroups(params), true
	}
	fresh, a.stale = a.stale, false
	return fresh
}

// Reset clears moment estimates and the step counter.
func (a *Adam) Reset() { a.stale, a.t = true, 0 }

// ExportMoments flattens the first- and second-moment buffers: the m
// groups followed by the v groups.
func (a *Adam) ExportMoments() (flat []float64, lens []int, steps int) {
	if a.stale {
		return nil, nil, a.t
	}
	flat, lens = flatten(a.m, a.v)
	return flat, lens, a.t
}

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// SetLR overrides the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// newGroups allocates zeroed state groups mirroring the params' shapes.
func newGroups(params []*nn.Param) [][]float64 {
	groups := make([][]float64, len(params))
	for j, p := range params {
		groups[j] = make([]float64, p.Value.Size())
	}
	return groups
}

// flatten copies the values of every group of sets into one new slice
// and returns it with the length of each group.
func flatten(sets ...[][]float64) (flat []float64, lens []int) {
	n := 0
	for _, groups := range sets {
		for _, g := range groups {
			n += len(g)
		}
	}
	flat = make([]float64, 0, n)
	for _, groups := range sets {
		for _, g := range groups {
			flat = append(flat, g...)
			lens = append(lens, len(g))
		}
	}
	return flat, lens
}

// groupsMatch reports whether state groups already mirror the params'
// shapes exactly (count and per-group size).
func groupsMatch(groups [][]float64, params []*nn.Param) bool {
	if len(groups) != len(params) {
		return false
	}
	for j, p := range params {
		if len(groups[j]) != p.Value.Size() {
			return false
		}
	}
	return true
}

// Schedule maps a global time step to a learning rate.
type Schedule interface {
	At(step int) float64
}

// InverseSchedule implements η_t = η₀·γ/(γ+t), the decay used in the
// paper's Theorem 1 (η_t = 2/(µ(γ+t)) up to the constant).
type InverseSchedule struct {
	Base  float64
	Gamma float64
}

// At returns Base·Gamma/(Gamma+step).
func (s InverseSchedule) At(step int) float64 {
	return s.Base * s.Gamma / (s.Gamma + float64(step))
}
