package optim

import (
	"math"
	"testing"

	"middle/internal/nn"
	"middle/internal/tensor"
)

// quadNet builds a 1-parameter "network" whose loss is ½(w−target)², so
// optimizer trajectories can be verified analytically.
type quadParam struct{ p *nn.Param }

func newQuad(w0 float64) *quadParam {
	p := &nn.Param{Name: "w", Value: tensor.FromSlice([]float64{w0}, 1), Grad: tensor.New(1)}
	return &quadParam{p: p}
}

func (q *quadParam) grad(target float64) { q.p.Grad.Data[0] = q.p.Value.Data[0] - target }
func (q *quadParam) w() float64          { return q.p.Value.Data[0] }

func TestSGDPlainStep(t *testing.T) {
	q := newQuad(1.0)
	s := NewSGD(0.1)
	q.grad(0)
	s.Step([]*nn.Param{q.p})
	if math.Abs(q.w()-0.9) > 1e-12 {
		t.Fatalf("w = %v, want 0.9", q.w())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	q := newQuad(1.0)
	s := NewSGDMomentum(0.1, 0.9)
	// Constant gradient 1.0: velocities are 1, 1.9, 2.71, ...
	q.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q.p})
	w1 := q.w()
	q.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q.p})
	w2 := q.w()
	if math.Abs((1.0-w1)-0.1) > 1e-12 {
		t.Fatalf("first step moved %v, want 0.1", 1.0-w1)
	}
	if math.Abs((w1-w2)-0.19) > 1e-12 {
		t.Fatalf("second step moved %v, want 0.19", w1-w2)
	}
}

func TestSGDMomentumResetClearsVelocity(t *testing.T) {
	q := newQuad(1.0)
	s := NewSGDMomentum(0.1, 0.9)
	q.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q.p})
	s.Reset()
	q.p.Grad.Data[0] = 1
	before := q.w()
	s.Step([]*nn.Param{q.p})
	if math.Abs((before-q.w())-0.1) > 1e-12 {
		t.Fatalf("after Reset step moved %v, want fresh 0.1", before-q.w())
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr·sign(g).
	q := newQuad(1.0)
	a := NewAdam(0.01)
	q.p.Grad.Data[0] = 3.7
	a.Step([]*nn.Param{q.p})
	moved := 1.0 - q.w()
	if math.Abs(moved-0.01) > 1e-6 {
		t.Fatalf("first Adam step %v, want ~0.01", moved)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	q := newQuad(5.0)
	a := NewAdam(0.1)
	ps := []*nn.Param{q.p}
	for i := 0; i < 500; i++ {
		q.grad(1.0)
		a.Step(ps)
	}
	if math.Abs(q.w()-1.0) > 0.05 {
		t.Fatalf("Adam ended at %v, want ~1", q.w())
	}
}

func TestAdamResetRestartsBiasCorrection(t *testing.T) {
	q := newQuad(1.0)
	a := NewAdam(0.01)
	q.p.Grad.Data[0] = 1
	a.Step([]*nn.Param{q.p})
	a.Reset()
	w := q.w()
	q.p.Grad.Data[0] = 1
	a.Step([]*nn.Param{q.p})
	if math.Abs((w-q.w())-0.01) > 1e-6 {
		t.Fatalf("post-Reset step %v, want ~0.01", w-q.w())
	}
}

func TestSetLR(t *testing.T) {
	s := NewSGD(0.1)
	s.SetLR(0.5)
	if s.LR() != 0.5 {
		t.Fatalf("LR = %v", s.LR())
	}
	a := NewAdam(0.1)
	a.SetLR(0.2)
	if a.LR() != 0.2 {
		t.Fatalf("Adam LR = %v", a.LR())
	}
}

func TestSchedules(t *testing.T) {
	inv := InverseSchedule{Base: 0.1, Gamma: 10}
	if inv.At(0) != 0.1 {
		t.Fatalf("InverseSchedule.At(0) = %v", inv.At(0))
	}
	if got := inv.At(10); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("InverseSchedule.At(10) = %v, want 0.05", got)
	}
}

// TestOptimizersTrainRealNetwork exercises both optimizers against the nn
// package end to end.
func TestOptimizersTrainRealNetwork(t *testing.T) {
	for name, mk := range map[string]func() Optimizer{
		"sgd-momentum": func() Optimizer { return NewSGDMomentum(0.05, 0.9) },
		"adam":         func() Optimizer { return NewAdam(0.01) },
	} {
		rng := tensor.NewRNG(42)
		net := nn.NewMLP(nn.MLPConfig{In: 2, Classes: 2, Hidden: []int{8}}, rng)
		opt := mk()
		n := 64
		x := tensor.New(n, 2)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			c := i % 2
			labels[i] = c
			off := -1.0
			if c == 1 {
				off = 1.0
			}
			x.Data[2*i] = off + 0.2*rng.NormFloat64()
			x.Data[2*i+1] = off + 0.2*rng.NormFloat64()
		}
		var last float64
		for it := 0; it < 150; it++ {
			net.ZeroGrad()
			logits := net.Forward(x, true)
			loss, g := nn.SoftmaxCrossEntropy(logits, labels)
			net.Backward(g)
			opt.Step(net.Params())
			last = loss
		}
		if last > 0.1 {
			t.Fatalf("%s: final loss %v", name, last)
		}
	}
}

func TestSGDVelocityReallocatedOnParamChange(t *testing.T) {
	s := NewSGDMomentum(0.1, 0.9)
	q1 := newQuad(1.0)
	q1.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q1.p})
	// Stepping with a different param-set size must not panic.
	q2 := newQuad(1.0)
	q3 := newQuad(2.0)
	q2.p.Grad.Data[0] = 1
	q3.p.Grad.Data[0] = 1
	s.Step([]*nn.Param{q2.p, q3.p})
}

// sgdStepPerElement is SGD.Step as a per-element loop; velocity is nil
// without momentum. Each product is converted to float64 — rounded
// before its sum, as amd64 compiled the loop — so arm64 does not fuse the
// reference either.
func sgdStepPerElement(w, g, velocity []float64, lr, momentum float64) {
	for i := range w {
		if velocity == nil {
			w[i] -= float64(lr * g[i])
			continue
		}
		velocity[i] = float64(momentum*velocity[i]) + g[i]
		w[i] -= float64(lr * velocity[i])
	}
}

// TestSGDStepMatchesPerElementLoop: the two branch-free loops of
// SGD.Step — momentum or not — leave the weights the per-element loop
// leaves, to the bit, over 20 steps with a Reset among them.
func TestSGDStepMatchesPerElementLoop(t *testing.T) {
	const lr, steps, resetAt = 0.05, 20, 11
	for _, momentum := range []float64{0, 0.9} {
		rng := tensor.NewRNG(31)
		var params []*nn.Param
		var want, velocity [][]float64
		for _, n := range []int{37, 5, 1} {
			p := &nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
			rng.FillNormal(p.Value, 0, 1)
			params = append(params, p)
			want = append(want, append([]float64(nil), p.Value.Data...))
			velocity = append(velocity, nil)
		}
		s := NewSGDMomentum(lr, momentum)
		for step := 0; step < steps; step++ {
			if step == resetAt {
				s.Reset()
			}
			for j, p := range params {
				rng.FillNormal(p.Grad, 0, 1)
				if momentum != 0 && (velocity[j] == nil || step == resetAt) {
					velocity[j] = make([]float64, len(want[j]))
				}
				sgdStepPerElement(want[j], p.Grad.Data, velocity[j], lr, momentum)
			}
			s.Step(params)
			for j, p := range params {
				for i, v := range p.Value.Data {
					if math.Float64bits(v) != math.Float64bits(want[j][i]) {
						t.Fatalf("momentum %v, step %d: w[%d][%d] = %v, the per-element loop gives %v",
							momentum, step, j, i, v, want[j][i])
					}
				}
			}
		}
	}
}

// adamStepPerElement is Adam.Step as it was written, with m, v cleared
// after a Reset, its products rounded as in sgdStepPerElement.
func adamStepPerElement(w, g, m, v []float64, a *Adam, t int) {
	bc1 := 1 - math.Pow(a.Beta1, float64(t))
	bc2 := 1 - math.Pow(a.Beta2, float64(t))
	for i := range w {
		d := g[i]
		m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*d)
		v[i] = float64(a.Beta2*v[i]) + float64(float64((1-a.Beta2)*d)*d)
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= float64(a.lr*mh) / (math.Sqrt(vh) + a.Eps)
	}
}

// TestAdamStepMatchesPerElementLoop: Adam.Step, whose first step after
// a Reset writes the moments from β·0 instead of clearing them first,
// leaves the weights and moments the per-element loop leaves, to the
// bit, over 20 steps with a Reset among them — −0, NaN and ±Inf
// gradients included.
func TestAdamStepMatchesPerElementLoop(t *testing.T) {
	const steps, resetAt = 20, 11
	rng := tensor.NewRNG(43)
	var params []*nn.Param
	var want, m, v [][]float64
	for _, n := range []int{37, 5, 1} {
		p := &nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
		rng.FillNormal(p.Value, 0, 1)
		params = append(params, p)
		want = append(want, append([]float64(nil), p.Value.Data...))
		m, v = append(m, make([]float64, n)), append(v, make([]float64, n))
	}
	a := NewAdam(0.01)
	for step, tt := 0, 0; step < steps; step++ {
		if step == resetAt {
			a.Reset()
			tt = 0
		}
		tt++
		for j, p := range params {
			rng.FillNormal(p.Grad, 0, 1)
			if step == resetAt {
				clear(m[j])
				clear(v[j])
				p.Grad.Data[0] = math.Copysign(0, -1)
			}
			if j == 0 && step == steps-1 {
				p.Grad.Data[1], p.Grad.Data[2], p.Grad.Data[3] = math.NaN(), math.Inf(1), math.Inf(-1)
			}
			adamStepPerElement(want[j], p.Grad.Data, m[j], v[j], a, tt)
		}
		a.Step(params)
		flat, _, _ := a.ExportMoments()
		off := 0
		for j, p := range params {
			for i, w := range p.Value.Data {
				if math.Float64bits(w) != math.Float64bits(want[j][i]) {
					t.Fatalf("step %d: w[%d][%d] = %v, the per-element loop gives %v",
						step, j, i, w, want[j][i])
				}
			}
			for i := range m[j] {
				gm, gv := flat[off+i], flat[len(flat)/2+off+i]
				if math.Float64bits(gm) != math.Float64bits(m[j][i]) || math.Float64bits(gv) != math.Float64bits(v[j][i]) {
					t.Fatalf("step %d: moments[%d][%d] = (%v, %v), the per-element loop gives (%v, %v)",
						step, j, i, gm, gv, m[j][i], v[j][i])
				}
			}
			off += len(m[j])
		}
	}
}
