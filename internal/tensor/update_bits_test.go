package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"middle/internal/nn"
	"middle/internal/optim"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// Bit-identity of the model-update kernels outside this package:
// optim.SGD.Step (tensor.MomentumStep) and simil.WeightedAverageInto
// (tensor.AxpyUnfused, by blocks), each against the per-element loop it
// replaced, under every kernel family. The references are those loops
// with each product converted to float64, which is how amd64 compiled
// them and what the golden hashes hold; the conversion keeps arm64 from
// fusing the reference too.

// updateLens are the vector lengths both kernels are checked at: every
// length up to past the 8-wide vector threshold and a few tails, the
// benchmark MLP's 51,930 parameters, and lengths that straddle each
// power of two a block of WeightedAverageInto might be.
var updateLens = func() []int {
	var ns []int
	for n := 0; n <= 33; n++ {
		ns = append(ns, n)
	}
	for p := 256; p <= 4096; p *= 2 {
		ns = append(ns, p-1, p, p+1, 3*p-1, 3*p+1)
	}
	return append(ns, 51_930)
}()

// specialValues seeds NaN, ±Inf and −0 through v at positions that fall
// in vector bodies and scalar tails alike; phase shifts the pattern so g
// and w do not carry it at the same places.
func specialValues(v []float64, phase int) {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range v {
		if k := (i + phase) % 11; k < len(specials) && (i+phase)%3 == 0 {
			v[i] = specials[k]
		}
	}
}

func sameUpdateBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d of %d is %v (%#016x), the per-element loop gives %v (%#016x)",
				what, i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sgdReference is SGD.Step's two element loops before MomentumStep:
// v ← µv + g; w ← w − η·v, with v nil without momentum.
func sgdReference(w, g, v []float64, lr, mu float64) {
	for i := range w {
		if mu == 0 {
			w[i] -= float64(lr * g[i])
			continue
		}
		v[i] = float64(mu*v[i]) + g[i]
		w[i] -= float64(lr * v[i])
	}
}

// TestSGDStepKernelMatchesLoop runs both SGD cases over every length
// in updateLens, from a fresh optimizer, after steps and after a Reset
// (whose first step writes v from µ·0 instead of clearing it first), with
// NaN, ±Inf and −0 in the gradients and weights.
func TestSGDStepKernelMatchesLoop(t *testing.T) {
	const lr, resetAt, steps = 0.05, 2, 4
	tensor.ForEachKernelFamily(t, func(t *testing.T) {
		for _, mu := range []float64{0, 0.9} {
			for _, n := range updateLens {
				rng := tensor.NewRNG(int64(n) + 7)
				p := &nn.Param{Name: "w", Value: &tensor.Tensor{Data: make([]float64, n)}, Grad: &tensor.Tensor{Data: make([]float64, n)}}
				for i := range p.Value.Data {
					p.Value.Data[i] = rng.NormFloat64()
				}
				specialValues(p.Value.Data, 1)
				want := append([]float64(nil), p.Value.Data...)
				var v []float64
				s := optim.NewSGDMomentum(lr, mu)
				for step := 0; step < steps; step++ {
					if step == resetAt {
						s.Reset()
					}
					if mu != 0 && (v == nil || step == resetAt) {
						v = make([]float64, n)
					}
					for i := range p.Grad.Data {
						p.Grad.Data[i] = rng.NormFloat64()
					}
					specialValues(p.Grad.Data, step)
					sgdReference(want, p.Grad.Data, v, lr, mu)
					s.Step([]*nn.Param{p})
					at := fmt.Sprintf("at momentum %v, n %d, step %d", mu, n, step)
					sameUpdateBits(t, "weights "+at, p.Value.Data, want)
					if flat, _, _ := s.ExportMoments(); mu != 0 && n > 0 {
						sameUpdateBits(t, "velocity "+at, flat, v)
					}
				}
			}
		}
	})
}

// weightedAverageReference is WeightedAverageInto's accumulation before
// blocking: clear dst, then one pass over it per vector.
func weightedAverageReference(dst []float64, vecs [][]float64, weights []float64) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	clear(dst)
	for i, v := range vecs {
		w := weights[i] / total
		if w == 0 {
			continue
		}
		for j, vj := range v {
			dst[j] += float64(w * vj)
		}
	}
}

// TestWeightedAverageKernelMatchesLoop: Eq. 6/7 by blocks gives the
// one-pass-per-vector bits for K = 1–6 vectors, some weights zero, with
// NaN, ±Inf and −0 among the values, at every length in updateLens. The
// streamed Accumulator gives them too.
func TestWeightedAverageKernelMatchesLoop(t *testing.T) {
	tensor.ForEachKernelFamily(t, func(t *testing.T) {
		for k := 1; k <= 6; k++ {
			for _, n := range updateLens {
				rng := tensor.NewRNG(int64(100*k + n))
				vecs, weights := make([][]float64, k), make([]float64, k)
				for i := range vecs {
					vecs[i] = make([]float64, n)
					for j := range vecs[i] {
						vecs[i][j] = rng.NormFloat64()
					}
					specialValues(vecs[i], 5*i)
					weights[i] = float64(1 + rng.Intn(40))
					if k > 1 && i%3 == 1 {
						weights[i] = 0
					}
				}
				want, got := make([]float64, n), make([]float64, n)
				for i := range got {
					got[i] = math.NaN() // overwritten, never read
				}
				weightedAverageReference(want, vecs, weights)
				simil.WeightedAverageInto(got, vecs, weights)
				sameUpdateBits(t, fmt.Sprintf("WeightedAverageInto at K %d, n %d", k, n), got, want)

				var acc simil.Accumulator
				total := 0.0
				for _, w := range weights {
					total += w
				}
				acc.Begin(got, total)
				for i, v := range vecs {
					acc.Add(v, weights[i])
				}
				sameUpdateBits(t, fmt.Sprintf("Accumulator at K %d, n %d", k, n), got, want)
			}
		}
	})
}
