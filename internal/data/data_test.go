package data

import (
	"math"
	"testing"
	"testing/quick"

	"middle/internal/nn"
	"middle/internal/tensor"
)

func TestNewDatasetValidation(t *testing.T) {
	// Wrong data length must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short data did not panic")
			}
		}()
		NewDataset("x", []int{2}, 2, []float64{1, 2, 3}, []int{0, 1})
	}()
	// Out-of-range label must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad label did not panic")
			}
		}()
		NewDataset("x", []int{1}, 2, []float64{1, 2}, []int{0, 2})
	}()
}

func TestBatchShapesAndContent(t *testing.T) {
	d := NewDataset("x", []int{2}, 2, []float64{1, 2, 3, 4, 5, 6}, []int{0, 1, 0})
	x, y := d.Batch([]int{2, 0})
	if x.Dim(0) != 2 || x.Dim(1) != 2 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if x.At(0, 0) != 5 || x.At(1, 1) != 2 {
		t.Fatalf("batch content %v", x.Data)
	}
	if y[0] != 0 || y[1] != 0 {
		t.Fatalf("batch labels %v", y)
	}
}

// TestBatchIntoReusesStorage: fed its own results back, BatchInto fills
// the same tensor for an equal-sized batch, serves a smaller one from the
// front of the same storage, grows for a larger one, and every time
// yields what Batch yields.
func TestBatchIntoReusesStorage(t *testing.T) {
	d := GenerateImages(FastImageProfile(4), 12, 7)
	same := func(x *tensor.Tensor, y []int, idx []int) {
		t.Helper()
		wx, wy := d.Batch(idx)
		if !x.SameShape(wx) || !x.Equal(wx, 0) || len(y) != len(wy) {
			t.Fatalf("BatchInto(%v) gave shape %v, want Batch's %v and values", idx, x.Shape(), wx.Shape())
		}
		for i := range y {
			if y[i] != wy[i] {
				t.Fatalf("BatchInto(%v) labels %v, want %v", idx, y, wy)
			}
		}
	}
	x, y := d.BatchInto([]int{0, 1, 2, 3}, nil, nil)
	same(x, y, []int{0, 1, 2, 3})
	first := x
	x, y = d.BatchInto([]int{7, 6, 5, 4}, x, y)
	same(x, y, []int{7, 6, 5, 4})
	if x != first {
		t.Fatal("an equal-sized batch did not reuse the tensor")
	}
	x, y = d.BatchInto([]int{9, 8}, x, y)
	same(x, y, []int{9, 8})
	if &x.Data[0] != &first.Data[0] {
		t.Fatal("a smaller batch did not reuse the storage")
	}
	x, y = d.BatchInto([]int{1, 3, 5, 7}, x, y)
	same(x, y, []int{1, 3, 5, 7})
	if &x.Data[0] != &first.Data[0] {
		t.Fatal("growing back within capacity did not reuse the storage")
	}
	x, y = d.BatchInto([]int{0, 2, 4, 6, 8, 10}, x, y)
	same(x, y, []int{0, 2, 4, 6, 8, 10})
	if allocs := testing.AllocsPerRun(10, func() { x, y = d.BatchInto([]int{0, 2, 4, 6, 8, 10}, x, y) }); allocs != 0 {
		t.Fatalf("a steady-state BatchInto allocates %v times, want 0", allocs)
	}
}

func TestGenerateImagesDeterministicAndBalanced(t *testing.T) {
	p := FastImageProfile(4)
	d1 := GenerateImages(p, 40, 7)
	d2 := GenerateImages(p, 40, 7)
	for i := 0; i < d1.Len()*d1.SampleSize(); i++ {
		if d1.data[i] != d2.data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	counts := labelHistogram(d1, allIndices(d1))
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10", c, n)
		}
	}
	d3 := GenerateImages(p, 40, 8)
	same := true
	for i := range d1.data {
		if d1.data[i] != d3.data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestTrainTestShareDistribution(t *testing.T) {
	// A model trained on the train split must beat chance on the test
	// split — this is exactly what breaks if prototypes are reseeded.
	train, test := GenerateTask(TaskMNIST, 300, 200, 5)
	if train.Classes != 10 || test.Classes != 10 {
		t.Fatalf("classes %d/%d", train.Classes, test.Classes)
	}
	rng := tensor.NewRNG(1)
	net := nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 10}, rng)
	flat := func(d *Dataset, idx []int) (*tensor.Tensor, []int) {
		x, y := d.Batch(idx)
		return x.Reshape(len(idx), d.SampleSize()), y
	}
	x, y := flat(train, train.All())
	for it := 0; it < 40; it++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, g := nn.SoftmaxCrossEntropy(logits, y)
		net.Backward(g)
		for _, p := range net.Params() {
			p.Value.AddScaledInPlace(-0.05, p.Grad)
		}
	}
	tx, ty := flat(test, test.All())
	acc := nn.Accuracy(net.Forward(tx, false), ty)
	if acc < 0.5 {
		t.Fatalf("test accuracy %v — train/test distributions diverge", acc)
	}
}

func TestSpeechProfileIsSparse(t *testing.T) {
	p := FastSequenceProfile(4)
	d := GenerateSequences(p, 8, 3)
	// Most mass should be near zero: count |x| > 0.5.
	active := 0
	total := 0
	for i := 0; i < d.Len(); i++ {
		for _, v := range d.Sample(i) {
			if math.Abs(v) > 0.5 {
				active++
			}
			total++
		}
	}
	frac := float64(active) / float64(total)
	if frac > 0.2 {
		t.Fatalf("sequence data active fraction %v, want sparse", frac)
	}
	if active == 0 {
		t.Fatal("sequence data has no signal at all")
	}
}

func TestPartitionMajorClass(t *testing.T) {
	d := GenerateImages(FastImageProfile(5), 500, 1)
	p := PartitionMajorClass(d, 10, 40, 0.8, 2)
	if p.NumDevices() != 10 {
		t.Fatalf("devices %d", p.NumDevices())
	}
	for m := 0; m < 10; m++ {
		if len(p.Indices[m]) != 40 {
			t.Fatalf("device %d has %d samples", m, len(p.Indices[m]))
		}
		wantMajor := m % 5
		hist := labelHistogram(p.Dataset, p.Indices[m])
		if hist[wantMajor] != 32 { // 0.8 * 40
			t.Fatalf("device %d major class count %d, want 32 (hist %v)", m, hist[wantMajor], hist)
		}
		if majorClass(p, m) != wantMajor {
			t.Fatalf("device %d major class %d, want %d", m, majorClass(p, m), wantMajor)
		}
	}
}

func TestPartitionSingleClass(t *testing.T) {
	d := GenerateImages(FastImageProfile(4), 200, 1)
	p := PartitionSingleClass(d, 8, 20, 3)
	for m := 0; m < 8; m++ {
		hist := labelHistogram(p.Dataset, p.Indices[m])
		for c, n := range hist {
			if c == m%4 {
				if n != 20 {
					t.Fatalf("device %d class %d count %d", m, c, n)
				}
			} else if n != 0 {
				t.Fatalf("device %d has stray class %d", m, c)
			}
		}
	}
}

func TestPartitionEdgeSkew(t *testing.T) {
	d := GenerateImages(FastImageProfile(10), 2000, 1)
	// 6 devices: first 3 on edge 0 (major {0..4}), rest on edge 1.
	edgeOf := []int{0, 0, 0, 1, 1, 1}
	majors := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	p := PartitionEdgeSkew(d, edgeOf, majors, 100, 0.7, 4)
	for m, e := range edgeOf {
		hist := labelHistogram(p.Dataset, p.Indices[m])
		majorN := 0
		for _, c := range majors[e] {
			majorN += hist[c]
		}
		frac := float64(majorN) / 100.0
		if frac < 0.55 || frac > 0.85 {
			t.Fatalf("device %d major fraction %v, want ≈0.7", m, frac)
		}
	}
}

func TestPartitionIIDCoversAllClasses(t *testing.T) {
	d := GenerateImages(FastImageProfile(5), 500, 1)
	p := PartitionIID(d, 4, 200, 9)
	for m := 0; m < 4; m++ {
		hist := labelHistogram(p.Dataset, p.Indices[m])
		for c, n := range hist {
			if n < 20 {
				t.Fatalf("device %d class %d only %d samples of 200", m, c, n)
			}
		}
	}
}

// Property: PartitionMajorClass always produces exactly perDevice indices
// per device, all valid, with the requested major fraction.
func TestQuickPartitionInvariants(t *testing.T) {
	d := GenerateImages(FastImageProfile(6), 600, 1)
	f := func(seed int64, devs8, per8 uint8) bool {
		devs := 1 + int(devs8%12)
		per := 6 + int(per8%30)
		p := PartitionMajorClass(d, devs, per, 0.8, seed)
		if p.NumDevices() != devs {
			return false
		}
		for m := 0; m < devs; m++ {
			if len(p.Indices[m]) != per {
				return false
			}
			for _, i := range p.Indices[m] {
				if i < 0 || i >= d.Len() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionMajorClassClustered(t *testing.T) {
	d := GenerateImages(FastImageProfile(10), 4000, 1)
	edges := 4
	p := PartitionMajorClassClustered(d, 20, 40, 0.85, edges, 2)
	// Every class must have at least one majoring device (coverage).
	covered := make([]bool, 10)
	for m := 0; m < 20; m++ {
		covered[majorClass(p, m)] = true
	}
	for c, ok := range covered {
		if !ok {
			t.Fatalf("class %d has no majoring device", c)
		}
	}
	// Devices sharing an initial edge must major on a narrow class block:
	// spread = ceil(10/4) = 3 distinct classes at most.
	for e := 0; e < edges; e++ {
		classes := map[int]bool{}
		for m := e; m < 20; m += edges {
			classes[majorClass(p, m)] = true
		}
		if len(classes) > 3 {
			t.Fatalf("edge %d devices major on %d classes, want ≤3", e, len(classes))
		}
	}
	// Major fraction respected.
	for m := 0; m < 20; m++ {
		hist := labelHistogram(p.Dataset, p.Indices[m])
		if hist[majorClass(p, m)] != 34 { // floor(0.85*40)
			t.Fatalf("device %d major count %d", m, hist[majorClass(p, m)])
		}
	}
}

func TestPartitionMajorClassClusteredPanics(t *testing.T) {
	d := GenerateImages(FastImageProfile(4), 100, 1)
	for name, fn := range map[string]func(){
		"edges":     func() { PartitionMajorClassClustered(d, 4, 10, 0.8, 0, 1) },
		"majorFrac": func() { PartitionMajorClassClustered(d, 4, 10, 1.5, 2, 1) },
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

func TestPartitionShared(t *testing.T) {
	d := GenerateImages(FastImageProfile(4), 100, 1)
	const devices, perDevice = 1000, 40
	p := PartitionShared(d, devices, perDevice, 7)
	if p.NumDevices() != devices {
		t.Fatalf("devices = %d", p.NumDevices())
	}
	seen := make([]bool, d.Len())
	for m := 0; m < devices; m++ {
		idx := p.Shard(m)
		if len(idx) != perDevice {
			t.Fatalf("device %d shard size %d", m, len(idx))
		}
		for _, i := range idx {
			if i < 0 || i >= d.Len() {
				t.Fatalf("device %d holds out-of-range index %d", m, i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("sample %d unused despite full wraparound coverage", i)
		}
	}
	// The whole point: windows alias one backing array. Device 0 and the
	// device whose window recycles to offset 0 share storage, and the
	// index footprint is O(corpus), not O(devices × perDevice).
	recycled := 0
	for m := 1; m < devices; m++ {
		if (m*perDevice)%d.Len() == 0 { // window start wraps to offset 0
			recycled = m
			break
		}
	}
	if recycled == 0 {
		t.Fatal("no recycled window in range — pick parameters that wrap")
	}
	if &p.Shard(0)[0] != &p.Shard(recycled)[0] {
		t.Fatal("recycled window does not alias the shared permutation")
	}
	// Deterministic per seed, different across seeds.
	q := PartitionShared(d, devices, perDevice, 7)
	r := PartitionShared(d, devices, perDevice, 8)
	samePQ, samePR := true, true
	for i := range p.Shard(3) {
		if p.Shard(3)[i] != q.Shard(3)[i] {
			samePQ = false
		}
		if p.Shard(3)[i] != r.Shard(3)[i] {
			samePR = false
		}
	}
	if !samePQ {
		t.Fatal("same seed produced different shards")
	}
	if samePR {
		t.Fatal("different seeds produced identical shards")
	}
}

// TestPartitionSharedPeriod: the shared partition stores one period of
// its windows, and Shard(m) is still the window starting at
// (m·perDevice) mod n for every device, including fleets shorter than a
// period and a perDevice that does not divide n.
func TestPartitionSharedPeriod(t *testing.T) {
	for _, c := range []struct{ n, perDevice, devices, period int }{
		{100, 40, 1000, 5},  // gcd 20
		{100, 30, 1000, 10}, // 30 does not divide 100
		{100, 7, 1000, 100}, // coprime: every start is distinct
		{100, 40, 3, 3},     // fewer devices than a period
		{100, 100, 50, 1},   // every device owns the whole corpus
		{60, 250, 400, 6},   // perDevice longer than the corpus
	} {
		d := GenerateImages(FastImageProfile(4), c.n, 1)
		p := PartitionShared(d, c.devices, c.perDevice, 3)
		if p.NumDevices() != c.devices || len(p.Indices) != c.period {
			t.Fatalf("%+v: %d devices over %d stored windows", c, p.NumDevices(), len(p.Indices))
		}
		perm := tensor.Split(3, 0x5AAD).Perm(c.n) // PartitionShared's permutation
		for m := 0; m < c.devices; m++ {
			start := (m * c.perDevice) % c.n
			got := p.Shard(m)
			if len(got) != c.perDevice {
				t.Fatalf("%+v: device %d owns %d samples", c, m, len(got))
			}
			for j, i := range got {
				if i != perm[(start+j)%c.n] {
					t.Fatalf("%+v: device %d does not own the window at %d", c, m, start)
				}
			}
		}
	}
}

func TestPartitionSharedPanics(t *testing.T) {
	d := GenerateImages(FastImageProfile(4), 20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero devices did not panic")
		}
	}()
	PartitionShared(d, 0, 5, 1)
}

// labelHistogram counts the labels of d's samples at the given indices.
func labelHistogram(d *Dataset, indices []int) []int {
	counts := make([]int, d.Classes)
	for _, i := range indices {
		counts[d.Label(i)]++
	}
	return counts
}

func allIndices(d *Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = i
	}
	return out
}

// majorClass returns the most frequent label in device m's shard (the
// lowest on a tie).
func majorClass(p *Partition, m int) int {
	hist := labelHistogram(p.Dataset, p.Indices[m])
	best := 0
	for c, n := range hist {
		if n > hist[best] {
			best = c
		}
	}
	return best
}
