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
// moment buffers plus the step counter — can be serialised for live
// migration and restored on another host. ExportMoments flattens the
// state into one slice with per-group lengths; ImportMoments is its
// inverse and reports false (leaving the optimizer untouched beyond a
// Reset) when the shapes are inconsistent.
type MomentExporter interface {
	ExportMoments() (flat []float64, lens []int, steps int)
	ImportMoments(flat []float64, lens []int, steps int) bool
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

// ExportMoments flattens the velocity buffers for live migration.
func (s *SGD) ExportMoments() (flat []float64, lens []int, steps int) {
	if s.stale {
		return nil, nil, s.t
	}
	return flattenGroups(s.velocity), groupLens(s.velocity), s.t
}

// ImportMoments restores velocity buffers exported by ExportMoments.
// It reports false on inconsistent shapes, leaving the optimizer reset.
func (s *SGD) ImportMoments(flat []float64, lens []int, steps int) bool {
	groups, ok := unflattenGroups(flat, lens)
	if !ok {
		s.Reset()
		return false
	}
	s.velocity, s.t, s.stale = groups, steps, false
	return true
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

// ExportMoments flattens the first- and second-moment buffers for live
// migration: the m groups followed by the v groups.
func (a *Adam) ExportMoments() (flat []float64, lens []int, steps int) {
	if a.stale {
		return nil, nil, a.t
	}
	flat = append(flattenGroups(a.m), flattenGroups(a.v)...)
	lens = append(groupLens(a.m), groupLens(a.v)...)
	return flat, lens, a.t
}

// ImportMoments restores state exported by ExportMoments. The group
// count must be even (m groups then v groups) and each half must
// describe the same shapes; it reports false otherwise, leaving the
// optimizer reset.
func (a *Adam) ImportMoments(flat []float64, lens []int, steps int) bool {
	groups, ok := unflattenGroups(flat, lens)
	if !ok || len(groups)%2 != 0 {
		a.Reset()
		return false
	}
	half := len(groups) / 2
	for j := 0; j < half; j++ {
		if len(groups[j]) != len(groups[half+j]) {
			a.Reset()
			return false
		}
	}
	if half == 0 {
		a.m, a.v = nil, nil
	} else {
		a.m, a.v = groups[:half], groups[half:]
	}
	a.t, a.stale = steps, false
	return true
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

// flattenGroups concatenates groups into one slice (nil for no state).
func flattenGroups(groups [][]float64) []float64 {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total == 0 {
		return nil
	}
	flat := make([]float64, 0, total)
	for _, g := range groups {
		flat = append(flat, g...)
	}
	return flat
}

// groupLens records each group's length (nil for no state).
func groupLens(groups [][]float64) []int {
	if len(groups) == 0 {
		return nil
	}
	lens := make([]int, len(groups))
	for j, g := range groups {
		lens[j] = len(g)
	}
	return lens
}

// unflattenGroups is the inverse of flattenGroups+groupLens, copying
// flat so the caller's buffer is not aliased. ok is false when the
// lengths do not add up.
func unflattenGroups(flat []float64, lens []int) (groups [][]float64, ok bool) {
	total := 0
	for _, n := range lens {
		if n < 0 {
			return nil, false
		}
		total += n
	}
	if total != len(flat) {
		return nil, false
	}
	if len(lens) == 0 {
		return nil, true
	}
	groups = make([][]float64, len(lens))
	off := 0
	for j, n := range lens {
		groups[j] = make([]float64, n)
		copy(groups[j], flat[off:off+n])
		off += n
	}
	return groups, true
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
