package nn

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"middle/internal/tensor"
)

func TestParamVectorRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewCNN2(CNN2Config{InC: 1, H: 8, W: 8, Classes: 4, C1: 2, C2: 3, Hidden: 8}, rng)
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("vector length %d != NumParams %d", len(v), net.NumParams())
	}
	// Mutate vector, load, extract again: must match exactly.
	for i := range v {
		v[i] = float64(i%13) * 0.1
	}
	net.SetParamVector(v)
	v2 := net.ParamVector()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, v[i], v2[i])
		}
	}
}

func TestSetParamVectorPanicsOnWrongLength(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewMLP(MLPConfig{In: 3, Classes: 2}, rng)
	for _, n := range []int{net.NumParams() - 1, net.NumParams() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetParamVector with length %d did not panic", n)
				}
			}()
			net.SetParamVector(make([]float64, n))
		}()
	}
}

func TestZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewMLP(MLPConfig{In: 3, Classes: 2, Hidden: []int{4}}, rng)
	x := tensor.New(2, 3)
	rng.FillNormal(x, 0, 1)
	logits := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, []int{0, 1})
	net.Backward(g)
	nz := 0
	for _, v := range net.GradVector() {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("backward produced all-zero gradients")
	}
	net.ZeroGrad()
	for i, v := range net.GradVector() {
		if v != 0 {
			t.Fatalf("grad[%d] = %v after ZeroGrad", i, v)
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// All-zero logits: loss must equal log(C), gradient rows sum to 0.
	logits := tensor.New(4, 5)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
	if math.Abs(loss-math.Log(5)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want log 5 = %v", loss, math.Log(5))
	}
	for r := 0; r < 4; r++ {
		s := 0.0
		for c := 0; c < 5; c++ {
			s += grad.At(r, c)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range label")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{3})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 5, 1,
		1, 0, 9,
		3, 2, 1,
	}, 4, 3)
	got := Accuracy(logits, []int{0, 1, 2, 2})
	if got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
}

func TestMaxPool2DKnown(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	p := NewMaxPool2D()
	y := p.Forward(x, true)
	want := []float64{4, 8, 9, 4}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool output %v, want %v", y.Data, want)
		}
	}
	// Gradient routes to argmax positions only.
	dy := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := p.Backward(dy)
	sum := 0.0
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("pool backward total %v, want 4", sum)
	}
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 2, 0) != 1 {
		t.Fatalf("pool backward misrouted: %v", dx.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	f := NewFlatten()
	x := tensor.New(3, 2, 4, 4)
	rng.FillNormal(x, 0, 1)
	y := f.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != 32 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	dx := f.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("flatten backward shape %v", dx.Shape())
	}
}

// TestTrainingReducesLoss is an end-to-end smoke test: plain SGD on a
// small separable problem must cut the loss dramatically.
func TestTrainingReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewMLP(MLPConfig{In: 2, Classes: 2, Hidden: []int{16}}, rng)
	// Two Gaussian blobs.
	n := 128
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		off := -1.5
		if c == 1 {
			off = 1.5
		}
		x.Data[2*i] = off + 0.3*rng.NormFloat64()
		x.Data[2*i+1] = off + 0.3*rng.NormFloat64()
	}
	first := lossOf(net, x, labels)
	lr := 0.5
	for it := 0; it < 60; it++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, g := SoftmaxCrossEntropy(logits, labels)
		net.Backward(g)
		for _, p := range net.Params() {
			p.Value.AddScaledInPlace(-lr, p.Grad)
		}
	}
	last := lossOf(net, x, labels)
	if last > first*0.1 {
		t.Fatalf("training did not converge: loss %v -> %v", first, last)
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 0.99 {
		t.Fatalf("separable blobs accuracy %v", acc)
	}
}

// Property: for any logits matrix, cross-entropy loss is non-negative and
// each gradient row sums to ~0 (softmax minus one-hot).
func TestQuickCrossEntropyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + int(rng.Int31n(6))
		c := 2 + int(rng.Int31n(5))
		logits := tensor.New(n, c)
		rng.FillNormal(logits, 0, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = int(rng.Int31n(int32(c)))
		}
		loss, grad := SoftmaxCrossEntropy(logits, labels)
		if loss < 0 || math.IsNaN(loss) || math.IsInf(loss, 0) {
			return false
		}
		for r := 0; r < n; r++ {
			s := 0.0
			for j := 0; j < c; j++ {
				s += grad.At(r, j)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ParamVector/SetParamVector round-trips arbitrary vectors.
func TestQuickParamVectorRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(77)
	net := NewMLP(MLPConfig{In: 4, Classes: 3, Hidden: []int{5}}, rng)
	n := net.NumParams()
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		net.SetParamVector(v)
		got := net.ParamVector()
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool1DKnown(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 5, 2, 4, 9, 3}, 1, 1, 6)
	p := NewMaxPool1D(2)
	y := p.Forward(x, true)
	want := []float64{5, 4, 9}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool1d output %v", y.Data)
		}
	}
	dy := tensor.FromSlice([]float64{1, 1, 1}, 1, 1, 3)
	dx := p.Backward(dy)
	if dx.Data[1] != 1 || dx.Data[3] != 1 || dx.Data[4] != 1 {
		t.Fatalf("pool1d backward %v", dx.Data)
	}
	if dx.Data[0] != 0 || dx.Data[2] != 0 || dx.Data[5] != 0 {
		t.Fatalf("pool1d backward leaked %v", dx.Data)
	}
}

func TestConv1DOutLen(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv1D(1, 2, 5, 2, 1, 20, rng)
	y := c.Forward(tensor.New(3, 1, 20), false)
	if want := []int{3, 2, tensor.ConvOut(20, 5, 2, 1)}; !reflect.DeepEqual(y.Shape(), want) {
		t.Fatalf("output shape %v, want %v", y.Shape(), want)
	}
}

func TestConv2DOutShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D(3, 8, 3, 3, 1, 1, 16, 16, rng)
	y := c.Forward(tensor.New(2, 3, 16, 16), false)
	if want := []int{2, 8, 16, 16}; !reflect.DeepEqual(y.Shape(), want) {
		t.Fatalf("output shape %v, want %v", y.Shape(), want)
	}
}

func TestModelBuilderPanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	for name, fn := range map[string]func(){
		"cnn2 dims": func() { NewCNN2(CNN2Config{InC: 1, H: 10, W: 10, Classes: 2, C1: 1, C2: 1, Hidden: 2}, rng) },
		"cnn3 dims": func() { NewCNN3(CNN3Config{InC: 1, H: 12, W: 12, Classes: 2, C1: 1, C2: 1, C3: 1, Hidden: 2}, rng) },
		"seq short": func() { NewSeqCNN(SeqCNNConfig{L: 64, Classes: 2, C1: 1, C2: 1, C3: 1, Hidden: 2}, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLayerShapePanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	for name, fn := range map[string]func(){
		"linear":  func() { NewLinear(4, 2, rng).Forward(tensor.New(2, 5), false) },
		"conv2d":  func() { NewConv2D(1, 1, 3, 3, 1, 1, 8, 8, rng).Forward(tensor.New(1, 1, 9, 9), false) },
		"conv1d":  func() { NewConv1D(1, 1, 3, 1, 1, 8, rng).Forward(tensor.New(1, 1, 9), false) },
		"pool2d":  func() { NewMaxPool2D().Forward(tensor.New(2, 4), false) },
		"pool1d":  func() { NewMaxPool1D(2).Forward(tensor.New(2, 4, 4, 4), false) },
		"ce rank": func() { SoftmaxCrossEntropy(tensor.New(2, 2, 2), []int{0, 1}) },
		"ce len":  func() { SoftmaxCrossEntropy(tensor.New(2, 2), []int{0}) },
		"acc len": func() { Accuracy(tensor.New(2, 2), []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPerSampleLossesMatchMean(t *testing.T) {
	rng := tensor.NewRNG(4)
	logits := tensor.New(5, 3)
	rng.FillNormal(logits, 0, 2)
	labels := []int{0, 1, 2, 1, 0}
	mean1, g1 := SoftmaxCrossEntropy(logits.Clone(), labels)
	mean2, g2, per := SoftmaxCrossEntropyPerSample(logits.Clone(), labels)
	if math.Abs(mean1-mean2) > 1e-12 {
		t.Fatalf("means differ: %v vs %v", mean1, mean2)
	}
	if !g1.Equal(g2, 1e-12) {
		t.Fatal("grads differ")
	}
	s := 0.0
	for _, l := range per {
		if l < 0 {
			t.Fatalf("negative per-sample loss %v", l)
		}
		s += l
	}
	if math.Abs(s/5-mean1) > 1e-12 {
		t.Fatalf("per-sample mean %v vs %v", s/5, mean1)
	}
}

func TestSequentialNetworkComposes(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork(NewFlatten(), NewLinear(16, 8, rng), NewReLU(), NewLinear(8, 3, rng))
	x := tensor.New(4, 4, 4)
	rng.FillNormal(x, 0, 1)
	y := net.Forward(x, true)
	if y.Dim(0) != 4 || y.Dim(1) != 3 {
		t.Fatalf("output shape %v", y.Shape())
	}
	if got := len(net.Params()); got != 4 {
		t.Fatalf("params %d, want 4 (2 layers × W,B)", got)
	}
}
