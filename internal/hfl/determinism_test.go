package hfl

import (
	"math"
	"slices"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// TestSimBitIdenticalAcrossParallelism pins the one level of parallelism
// the engine has: the worker pool trains a step's devices side by side
// and classifies an evaluation's 64-sample chunks side by side, each
// worker on its own network, and nothing below it fans out. Every
// device's randomness derives from (seed, step, device) and hit counts
// are integers, so a run on one worker and a run on four end with the
// same bits in the cloud model and in every edge model, and report the
// same global, per-edge and per-class accuracy at every evaluation. The
// CNN and the 300-sample test set (four full chunks and a ragged fifth)
// put the conv kernels and the chunk fan-out under it.
func TestSimBitIdenticalAcrossParallelism(t *testing.T) {
	runWith := func(par int) (*Sim, *History) {
		f := newFixture(t, 0.5)
		f.test = data.GenerateImagesSplit(data.FastImageProfile(4), 300, 5, 77)
		cfg := smallConfig()
		cfg.Parallelism = par
		cfg.Steps = 12 // two cloud syncs, then two edge rounds: edges differ from the cloud
		cfg.EvalEvery = 3
		cfg.EvalEdges, cfg.EvalPerClass = true, true
		s := New(cfg, f.cnnFactory(), f.part, f.test, f.mob, middleLike{})
		return s, s.Run()
	}
	s1, h1 := runWith(1)
	s4, h4 := runWith(4)
	models := func(s *Sim) [][]float64 { return append([][]float64{s.cloud}, s.edges...) }
	m1, m4 := models(s1), models(s4)
	for v := range m1 {
		for i := range m1[v] {
			if math.Float64bits(m1[v][i]) != math.Float64bits(m4[v][i]) {
				t.Fatalf("model %d (0 = cloud, then edges) differs at %d between Parallelism 1 and 4: %v vs %v",
					v, i, m1[v][i], m4[v][i])
			}
		}
	}
	if len(h1.GlobalAcc) != 4 || len(h4.GlobalAcc) != 4 {
		t.Fatalf("eval counts %d and %d, want 4", len(h1.GlobalAcc), len(h4.GlobalAcc))
	}
	for i := range h1.GlobalAcc {
		if h1.GlobalAcc[i] != h4.GlobalAcc[i] ||
			!slices.Equal(h1.EdgeAcc[i], h4.EdgeAcc[i]) ||
			!slices.Equal(h1.PerClassAcc[i], h4.PerClassAcc[i]) {
			t.Fatalf("evaluation %d differs between Parallelism 1 and 4: global %v vs %v, edges %v vs %v, classes %v vs %v",
				i, h1.GlobalAcc[i], h4.GlobalAcc[i], h1.EdgeAcc[i], h4.EdgeAcc[i], h1.PerClassAcc[i], h4.PerClassAcc[i])
		}
	}
}

// TestSelectionIdenticalAcrossParallelism pins the selection fan-out: the
// engine calls Select for its 16 edges from Parallelism goroutines, each
// edge on its own RNG stream over a view nobody writes meanwhile, so the
// cohort every edge trains at every step — not only the model the run
// ends on — is the same with one selecting goroutine as with four. The
// lazy store puts the drift fast path and its maps under the concurrent
// reads.
func TestSelectionIdenticalAcrossParallelism(t *testing.T) {
	const edges, devices, steps = 16, 96, 12
	runWith := func(par int) ([][][]int, []float64) {
		f := newFixture(t, 0.5)
		f.part = data.PartitionMajorClass(f.part.Dataset, devices, 12, 0.85, 6)
		f.mob = mobility.NewMarkov(edges, devices, 0.5, 7)
		cfg := smallConfig()
		cfg.Parallelism = par
		cfg.LazyStore = true
		s := New(cfg, f.factory(), f.part, f.test, f.mob, middleLike{})
		var selected [][][]int
		for step := 0; step < steps; step++ {
			s.StepOnce()
			perEdge := make([][]int, edges)
			for n, sel := range s.selected {
				perEdge[n] = slices.Clone(sel)
			}
			selected = append(selected, perEdge)
		}
		return selected, s.cloud
	}
	sel1, cloud1 := runWith(1)
	sel4, cloud4 := runWith(4)
	trained := 0
	for step := range sel1 {
		for n := range sel1[step] {
			if !slices.Equal(sel1[step][n], sel4[step][n]) {
				t.Fatalf("step %d edge %d: selected %v with Parallelism 1, %v with 4",
					step+1, n, sel1[step][n], sel4[step][n])
			}
			trained += len(sel1[step][n])
		}
	}
	if trained == 0 {
		t.Fatal("no edge ever selected a device")
	}
	for i := range cloud1 {
		if math.Float64bits(cloud1[i]) != math.Float64bits(cloud4[i]) {
			t.Fatalf("cloud model differs at %d between Parallelism 1 and 4", i)
		}
	}
}

// TestPeriodicPartitionMatchesExpanded pins the shared partition's
// storage: a Sim over PartitionShared, which keeps one period of windows
// and reads d_m from the device's shard, ends 20 steps with the same
// bits as a Sim over the same shards stored once per device.
func TestPeriodicPartitionMatchesExpanded(t *testing.T) {
	const edges, devices, steps = 4, 100, 20
	f := newFixture(t, 0.5)
	periodic := data.PartitionShared(f.part.Dataset, devices, 30, 3)
	if len(periodic.Indices) >= devices {
		t.Fatalf("%d windows stored for %d devices: the partition is not periodic", len(periodic.Indices), devices)
	}
	expanded := &data.Partition{Dataset: periodic.Dataset, Indices: make([][]int, devices)}
	for m := range expanded.Indices {
		expanded.Indices[m] = slices.Clone(periodic.Shard(m))
	}
	run := func(part *data.Partition) *Sim {
		cfg := smallConfig()
		cfg.Steps = steps
		cfg.LazyStore = true
		s := New(cfg, f.factory(), part, f.test, mobility.NewMarkovRing(edges, devices, 0.5, 7), middleLike{})
		s.Run()
		return s
	}
	a, b := run(periodic), run(expanded)
	models := func(s *Sim) [][]float64 { return append([][]float64{s.cloud}, s.edges...) }
	ma, mb := models(a), models(b)
	for v := range ma {
		for i := range ma[v] {
			if math.Float64bits(ma[v][i]) != math.Float64bits(mb[v][i]) {
				t.Fatalf("model %d (0 = cloud, then edges) differs at %d: %v periodic, %v expanded", v, i, ma[v][i], mb[v][i])
			}
		}
	}
	if !slices.Equal(a.History().GlobalAcc, b.History().GlobalAcc) {
		t.Fatalf("accuracy %v periodic, %v expanded", a.History().GlobalAcc, b.History().GlobalAcc)
	}
}

// prefixStrategy shuffles the candidates it is given in place and
// selects the first k: as candidates[:k] itself, or with copied as a
// fresh slice of the same ids. Movers take Eq. 9 as in middleLike.
type prefixStrategy struct{ copied bool }

func (prefixStrategy) Name() string { return "prefix" }

func (p prefixStrategy) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	sel := candidates[:min(k, len(candidates))]
	if p.copied {
		return slices.Clone(sel)
	}
	return sel
}

func (prefixStrategy) InitLocal(v View, device, edge int, moved bool) []float64 {
	return middleLike{}.InitLocal(v, device, edge, moved)
}

// TestSelectionSubSliceOfScratch pins Strategy.Select's contract on the
// candidates: they are a pool worker's scratch, which the worker widens
// its next edge's candidates into, and a strategy may return a sub-slice
// of them. With two workers for six edges each worker serves several
// edges a step; every edge must still train its own selection, and the
// run must end with the same bits as one whose strategy returns a copy.
func TestSelectionSubSliceOfScratch(t *testing.T) {
	const edges, devices, steps = 6, 48, 12
	run := func(copied bool) *Sim {
		f := newFixture(t, 0.5)
		f.part = data.PartitionMajorClass(f.part.Dataset, devices, 8, 0.85, 6)
		cfg := smallConfig()
		cfg.Steps, cfg.Parallelism = steps, 2
		s := New(cfg, f.factory(), f.part, f.test, mobility.NewMarkov(edges, devices, 0.5, 7), prefixStrategy{copied})
		for i := 0; i < steps; i++ {
			s.StepOnce()
			for n, sel := range s.selected {
				for _, m := range sel {
					if s.membership[m] != n {
						t.Fatalf("copied=%v step %d: edge %d selected device %d, which is in edge %d", copied, i+1, n, m, s.membership[m])
					}
				}
			}
		}
		return s
	}
	sub, cp := run(false), run(true)
	models := func(s *Sim) [][]float64 { return append([][]float64{s.cloud}, s.edges...) }
	ms, mc := models(sub), models(cp)
	for v := range ms {
		for i := range ms[v] {
			if math.Float64bits(ms[v][i]) != math.Float64bits(mc[v][i]) {
				t.Fatalf("model %d (0 = cloud, then edges) differs at %d: %v returning candidates[:k], %v returning a copy", v, i, ms[v][i], mc[v][i])
			}
		}
	}
	if !slices.Equal(sub.History().GlobalAcc, cp.History().GlobalAcc) {
		t.Fatalf("accuracy %v returning candidates[:k], %v returning a copy", sub.History().GlobalAcc, cp.History().GlobalAcc)
	}
}
