package hfl

import (
	"hash/fnv"
	"math"
	"testing"

	"middle/internal/nn"
	"middle/internal/tensor"
)

// Model hashes of goldenRun, written by the commit before the tensor
// kernels lost their inner fan-out: one for the AVX2+FMA kernels and one
// for the portable ones (fused multiply-add and lane-wise dot reductions
// move the last bits). A change that claims "same bits" passes this test
// unedited.
const (
	goldenHashAVX2    = 0xe9499001245d8666
	goldenHashGeneric = 0xd8fa0f5a747d4ced
)

// cnnFactory is the paper's CNN2 shrunk to the fixture's 8×8 images.
func (f fixture) cnnFactory() ModelFactory {
	return func(rng *tensor.RNG) *nn.Network {
		return nn.NewCNN2(nn.CNN2Config{InC: 1, H: 8, W: 8, Classes: f.test.Classes, C1: 8, C2: 8, Hidden: 16}, rng)
	}
}

// TestGoldenModelHash runs a small CNN federation under mobility 0.5 —
// Eq. 9 blends, Eq. 12 selection, one cloud sync and two edge rounds
// after it, so the edge models differ from the cloud's — and compares
// the FNV-64a hash of the cloud and edge models with the recorded one.
// The conv2 weight gradient is a 8×256·(200×256)ᵀ product, large enough
// that the row blocking of MatMulTransB decides its summation order.
func TestGoldenModelHash(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.BatchSize = 16
	cfg.Steps = cfg.CloudInterval + 2
	s := New(cfg, f.cnnFactory(), f.part, f.test, f.mob, middleLike{})
	s.Run()

	h := fnv.New64a()
	var b [8]byte
	write := func(v []float64) {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	write(s.CloudModel())
	for n := 0; n < s.NumEdges(); n++ {
		write(s.EdgeModel(n))
	}
	want := uint64(goldenHashGeneric)
	if tensor.HasAVX2() {
		want = goldenHashAVX2
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("model hash %#016x, want %#016x (AVX2 kernels: %v)", got, want, tensor.HasAVX2())
	}
}
