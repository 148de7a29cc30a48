package tensor_test

import (
	"hash/fnv"
	"math"
	"testing"

	"middle/internal/nn"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// Parameter hashes after goldenSteps of momentum SGD at the benchmark's
// own geometry, written by running this file on the commit before the
// rank-2 axpy4x2, dot3x1, branch-free ReLU/pooling and by-plane lowering
// kernels landed. hfl.TestGoldenModelHash trains on 8×8 images, whose
// conv2 rows (4 wide) never reach the vector kernels; these pin the
// 28×28 shapes sim_tta trains on and the MLP of the net workloads. A
// change that claims "same bits" passes this test unedited, under both
// kernel families.
const (
	goldenCNN2AVX2    = 0x1af985d030a3d410
	goldenCNN2Generic = 0x50e5d0d72d7e0819
	goldenMLPAVX2     = 0x28c5a80acd9bb2ec
	goldenMLPGeneric  = 0x19708c2a1f4c7d27

	goldenSteps = 3
	goldenBatch = 16
)

// emnistCNN2 and benchMLP are bench/workloads.go's two models.
func emnistCNN2(rng *tensor.RNG) *nn.Network {
	return nn.NewCNN2(nn.CNN2Config{InC: 1, H: 28, W: 28, Classes: 26, C1: 8, C2: 16, Hidden: 64}, rng)
}

func benchMLP(rng *tensor.RNG) *nn.Network {
	return nn.NewNetwork(nn.NewFlatten(), nn.NewLinear(784, 64, rng), nn.NewReLU(), nn.NewLinear(64, 26, rng))
}

// trainedHash runs goldenSteps momentum-SGD steps on seeded noise images
// and returns the FNV-64a hash of the parameters' bits.
func trainedHash(t *testing.T, net *nn.Network) uint64 {
	rng := tensor.NewRNG(41)
	opt := optim.NewSGDMomentum(0.05, 0.9)
	x := tensor.New(goldenBatch, 1, 28, 28)
	labels := make([]int, goldenBatch)
	for s := 0; s < goldenSteps; s++ {
		rng.FillNormal(x, 0, 1)
		for i := range labels {
			labels[i] = rng.Intn(26)
		}
		net.ZeroGrad()
		_, g := nn.SoftmaxCrossEntropy(net.Forward(x, true), labels)
		net.Backward(g)
		opt.Step(net.Params())
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range net.ParamVector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("training diverged: the hash would pin nothing")
		}
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestGoldenBenchmarkGeometry(t *testing.T) {
	models := []struct {
		name          string
		build         func(*tensor.RNG) *nn.Network
		avx2, generic uint64
	}{
		{"cnn2", emnistCNN2, goldenCNN2AVX2, goldenCNN2Generic},
		{"mlp", benchMLP, goldenMLPAVX2, goldenMLPGeneric},
	}
	tensor.ForEachKernelFamily(t, func(t *testing.T) {
		for _, m := range models {
			want := m.generic
			if tensor.HasAVX2() {
				want = m.avx2
			}
			if got := trainedHash(t, m.build(tensor.NewRNG(7))); got != want {
				t.Errorf("%s: parameter hash %#016x, want %#016x (AVX2 kernels: %v)", m.name, got, want, tensor.HasAVX2())
			}
		}
	})
}
