// Package optim implements the optimizers the MIDDLE paper uses:
// SGD with momentum 0.9 for the image-classification tasks and Adam for
// the speech-recognition task (§6.1.2), plus learning-rate schedules.
package optim

import (
	"math"
	"slices"

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
// state into one slice with per-group lengths; ExportMomentsInto does the
// same into the caller's slices, reusing their storage; ImportMoments is
// the inverse, copying into the optimizer's own buffers, and reports false
// (leaving the optimizer untouched beyond a Reset) when the shapes are
// inconsistent.
type MomentExporter interface {
	ExportMoments() (flat []float64, lens []int, steps int)
	ExportMomentsInto(flat []float64, lens []int) ([]float64, []int, int)
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
	return s.ExportMomentsInto(nil, nil)
}

// ExportMomentsInto is ExportMoments writing into flat[:0] and lens[:0],
// which allocate only when their capacity is short.
func (s *SGD) ExportMomentsInto(flat []float64, lens []int) ([]float64, []int, int) {
	flat, lens = flat[:0], lens[:0]
	if s.stale {
		return flat, lens, s.t
	}
	return flattenInto(flat, s.velocity), lensInto(lens, s.velocity), s.t
}

// ImportMoments restores velocity buffers exported by ExportMoments,
// copying into the ones the optimizer holds when their shapes match. It
// reports false on inconsistent shapes, leaving the optimizer reset.
func (s *SGD) ImportMoments(flat []float64, lens []int, steps int) bool {
	if !lensAddUp(flat, lens) {
		s.Reset()
		return false
	}
	s.velocity = unflattenInto(s.velocity, flat, lens)
	s.t, s.stale = steps, false
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
	return a.ExportMomentsInto(nil, nil)
}

// ExportMomentsInto is ExportMoments writing into flat[:0] and lens[:0],
// which allocate only when their capacity is short.
func (a *Adam) ExportMomentsInto(flat []float64, lens []int) ([]float64, []int, int) {
	flat, lens = flat[:0], lens[:0]
	if a.stale {
		return flat, lens, a.t
	}
	return flattenInto(flat, a.m, a.v), lensInto(lens, a.m, a.v), a.t
}

// ImportMoments restores state exported by ExportMoments, copying into
// the buffers the optimizer holds when their shapes match. The group
// count must be even (m groups then v groups) and each half must
// describe the same shapes; it reports false otherwise, leaving the
// optimizer reset.
func (a *Adam) ImportMoments(flat []float64, lens []int, steps int) bool {
	half := len(lens) / 2
	if !lensAddUp(flat, lens) || len(lens)%2 != 0 {
		a.Reset()
		return false
	}
	total := 0
	for j, n := range lens[:half] {
		if n != lens[half+j] {
			a.Reset()
			return false
		}
		total += n
	}
	a.m = unflattenInto(a.m, flat[:total], lens[:half])
	a.v = unflattenInto(a.v, flat[total:], lens[half:])
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

// flattenInto appends the values of every group of sets to flat, growing
// it at most once.
func flattenInto(flat []float64, sets ...[][]float64) []float64 {
	n := 0
	for _, groups := range sets {
		for _, g := range groups {
			n += len(g)
		}
	}
	flat = slices.Grow(flat, n)
	for _, groups := range sets {
		for _, g := range groups {
			flat = append(flat, g...)
		}
	}
	return flat
}

// lensInto appends the length of every group of sets to lens, growing it
// at most once.
func lensInto(lens []int, sets ...[][]float64) []int {
	n := 0
	for _, groups := range sets {
		n += len(groups)
	}
	lens = slices.Grow(lens, n)
	for _, groups := range sets {
		for _, g := range groups {
			lens = append(lens, len(g))
		}
	}
	return lens
}

// lensAddUp reports whether lens, none negative, split flat exactly.
func lensAddUp(flat []float64, lens []int) bool {
	total := 0
	for _, n := range lens {
		if n < 0 {
			return false
		}
		total += n
	}
	return total == len(flat)
}

// unflattenInto is the inverse of flattenInto+lensInto for lens that add
// up: it copies flat into groups when their shapes are lens, and into new
// groups otherwise, so the caller's buffer is never aliased. nil for no
// groups.
func unflattenInto(groups [][]float64, flat []float64, lens []int) [][]float64 {
	if len(lens) == 0 {
		return nil
	}
	if !sameLens(groups, lens) {
		groups = make([][]float64, len(lens))
		for j, n := range lens {
			groups[j] = make([]float64, n)
		}
	}
	off := 0
	for _, g := range groups {
		off += copy(g, flat[off:])
	}
	return groups
}

// sameLens reports whether groups have exactly the lengths lens.
func sameLens(groups [][]float64, lens []int) bool {
	if len(groups) != len(lens) {
		return false
	}
	for j, g := range groups {
		if len(g) != lens[j] {
			return false
		}
	}
	return true
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
