package hfl

import (
	"math"
	"slices"
	"testing"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// TestSimBitIdenticalAcrossMaxWorkers pins the kernel-level determinism
// contract end to end: the tensor kernels chunk work across goroutines,
// but every output element's summation order is fixed, so a full
// federated run must produce bit-identical models whether the kernels run
// serially or with 8 workers.
func TestSimBitIdenticalAcrossMaxWorkers(t *testing.T) {
	runWith := func(workers int) ([]float64, []float64) {
		prev := tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(prev)
		f := newFixture(t, 0.5)
		cfg := smallConfig()
		cfg.Parallelism = 2
		s := New(cfg, f.factory(), f.part, f.test, f.mob, &spyStrategy{})
		h := s.Run()
		return s.cloud, h.GlobalAcc
	}
	cloud1, acc1 := runWith(1)
	cloud8, acc8 := runWith(8)
	if len(cloud1) != len(cloud8) {
		t.Fatalf("model sizes differ: %d vs %d", len(cloud1), len(cloud8))
	}
	for i := range cloud1 {
		if cloud1[i] != cloud8[i] {
			t.Fatalf("cloud model differs at %d between MaxWorkers 1 and 8: %v vs %v", i, cloud1[i], cloud8[i])
		}
	}
	if len(acc1) != len(acc8) {
		t.Fatalf("eval counts differ: %d vs %d", len(acc1), len(acc8))
	}
	for i := range acc1 {
		if acc1[i] != acc8[i] {
			t.Fatalf("accuracy differs at eval %d: %v vs %v", i, acc1[i], acc8[i])
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
