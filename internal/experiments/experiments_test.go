package experiments

import (
	"math"
	"testing"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/tensor"
)

// The experiment tests run heavily reduced horizons: they validate
// plumbing (shapes, determinism, sane ranges), not paper-scale outcomes —
// those are exercised by the benchmark harness.

func TestNewTaskSetupAllTasks(t *testing.T) {
	for _, task := range data.AllTasks() {
		s := NewTaskSetup(task, Fast, 1)
		if s.Train.Len() == 0 || s.Test.Len() == 0 {
			t.Fatalf("%s: empty datasets", task)
		}
		if s.Train.Classes != s.Test.Classes {
			t.Fatalf("%s: class mismatch", task)
		}
		net := s.Factory(tensor.NewRNG(1))
		if net.NumParams() == 0 {
			t.Fatalf("%s: empty model", task)
		}
		if s.TargetAcc <= 0 || s.TargetAcc >= 1 {
			t.Fatalf("%s: target %v", task, s.TargetAcc)
		}
	}
}

func TestTaskSetupSpeechUsesAdam(t *testing.T) {
	s := NewTaskSetup(data.TaskSpeech, Fast, 1)
	if s.Optimizer.Kind != hfl.OptAdam {
		t.Fatalf("speech optimizer %q, want adam", s.Optimizer.Kind)
	}
	img := NewTaskSetup(data.TaskMNIST, Fast, 1)
	if img.Optimizer.Kind != hfl.OptSGDMomentum || img.Optimizer.Momentum != 0.9 {
		t.Fatalf("image optimizer %+v, want sgd-momentum 0.9", img.Optimizer)
	}
}

func TestPartitionMatchesTopology(t *testing.T) {
	s := NewTaskSetup(data.TaskMNIST, Fast, 1)
	p := s.Partition(2)
	if p.NumDevices() != s.Devices {
		t.Fatalf("partition devices %d, want %d", p.NumDevices(), s.Devices)
	}
	for m := 0; m < p.NumDevices(); m++ {
		if len(p.Indices[m]) != s.PerDevice {
			t.Fatalf("device %d shard %d, want %d", m, len(p.Indices[m]), s.PerDevice)
		}
	}
}

func TestRunFig6ShapesAndDeterminism(t *testing.T) {
	setup := NewTaskSetup(data.TaskMNIST, Fast, 3)
	strategies := []hfl.Strategy{core.NewMiddle(), core.NewOort()}
	r1 := RunFig6(setup, strategies, 0.5, 7, 10)
	if len(r1.Curves) != 2 || len(r1.Results) != 2 {
		t.Fatalf("curves/results %d/%d", len(r1.Curves), len(r1.Results))
	}
	if r1.Curves[0].Name != "MIDDLE" || r1.Results[1].Strategy != "OORT" {
		t.Fatalf("strategy order wrong: %v %v", r1.Curves[0].Name, r1.Results[1].Strategy)
	}
	for _, c := range r1.Curves {
		if len(c.X) == 0 {
			t.Fatalf("empty curve %s", c.Name)
		}
		for _, y := range c.Y {
			if y < 0 || y > 1 {
				t.Fatalf("accuracy %v out of range", y)
			}
		}
	}
	r2 := RunFig6(NewTaskSetup(data.TaskMNIST, Fast, 3), strategies, 0.5, 7, 10)
	for i := range r1.Curves {
		for j := range r1.Curves[i].Y {
			if r1.Curves[i].Y[j] != r2.Curves[i].Y[j] {
				t.Fatal("RunFig6 not deterministic")
			}
		}
	}
	if table := r1.SpeedupTable(); table == "" {
		t.Fatal("empty speedup table")
	}
}

func TestRunFig7Shapes(t *testing.T) {
	setup := NewTaskSetup(data.TaskMNIST, Fast, 3)
	r := RunFig7(setup, []hfl.Strategy{core.NewMiddle()}, []float64{0.1, 0.5}, 5, 10)
	if len(r.FinalAcc) != 1 || len(r.FinalAcc[0]) != 2 {
		t.Fatalf("shape %dx%d", len(r.FinalAcc), len(r.FinalAcc[0]))
	}
	for _, row := range r.FinalAcc {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("accuracy %v", v)
			}
		}
	}
}

func TestRunFig8Shapes(t *testing.T) {
	setup := NewTaskSetup(data.TaskMNIST, Fast, 3)
	r := RunFig8(setup, []hfl.Strategy{core.NewMiddle(), core.NewOort()}, []int{5, 10}, 0.5, 5, 10)
	if len(r.Curves) != 4 {
		t.Fatalf("curves %d, want 4", len(r.Curves))
	}
	if r.Curves[0].Name != "MIDDLE Tc=5" {
		t.Fatalf("first curve %q, want \"MIDDLE Tc=5\"", r.Curves[0].Name)
	}
}

func TestRunFig1ProducesSeries(t *testing.T) {
	r := RunFig1(Fig1Config{Scale: Fast, Seed: 2, Steps: 20})
	if len(r.Steps) == 0 {
		t.Fatal("no evaluations recorded")
	}
	series := r.Series()
	if len(series) != 4 {
		t.Fatalf("series %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != len(r.Steps) {
			t.Fatalf("series %s length mismatch", s.Name)
		}
	}
	if len(r.MajorClasses) != 5 || len(r.MinorClasses) != 5 {
		t.Fatalf("class splits %v / %v", r.MajorClasses, r.MinorClasses)
	}
}

func TestRunFig2ShapesAndSwap(t *testing.T) {
	r := RunFig2(Fig2Config{Scale: Fast, Seed: 2, Warmup: 12, After: 8})
	if len(r.Methods) != 2 || len(r.CloudPerClass) != 2 || len(r.EdgePerClass) != 2 {
		t.Fatalf("methods/per-class dims wrong")
	}
	for _, pc := range r.CloudPerClass {
		if len(pc) != r.Classes {
			t.Fatalf("per-class length %d", len(pc))
		}
	}
	want := []int{3, 4, 8, 9}
	for i, c := range r.SwappedClasses {
		if c != want[i] {
			t.Fatalf("swapped classes %v", r.SwappedClasses)
		}
	}
}

func TestFig2TraceScript(t *testing.T) {
	tr := fig2Trace(10, 3, 2)
	if tr.Steps() != 6 { // 3+1 base rows + 2 swapped rows
		t.Fatalf("trace steps %d", tr.Steps())
	}
	base := tr.Memberships[0]
	if base[3] != 0 || base[8] != 1 {
		t.Fatalf("base membership %v", base)
	}
	swapped := tr.Memberships[5]
	if swapped[3] != 1 || swapped[4] != 1 || swapped[8] != 0 || swapped[9] != 0 {
		t.Fatalf("swapped membership %v", swapped)
	}
	if swapped[0] != 0 || swapped[5] != 1 {
		t.Fatalf("unswapped devices moved: %v", swapped)
	}
}

// TestRunTheorySweep also checks Remark 1 on the engine: at α = 0.1 and
// 0.3 the start-point divergence falls strictly from each P to the next,
// and the 95% intervals over the seeds do not overlap. At α = 0.5 it does
// not (the divergence rises again towards P = 1), so that column is not
// in the sweep.
func TestRunTheorySweep(t *testing.T) {
	r := RunTheory(TheoryConfig{Scale: Fast, Seed: 1, Ps: []float64{0.1, 0.5, 1.0}, Alphas: []float64{0.1, 0.3}})
	if len(r.Gap) != 3 || len(r.Gap[0]) != 2 || len(r.GapHW) != 3 || len(r.DivergenceHW[2]) != 2 {
		t.Fatalf("gap shape %dx%d", len(r.Gap), len(r.Gap[0]))
	}
	if len(r.Bound) != 3 {
		t.Fatalf("bound length %d", len(r.Bound))
	}
	for i := range r.Gap {
		// Remark 1: the theoretical bound decreases with P.
		if i > 0 && r.Bound[i] >= r.Bound[i-1] {
			t.Fatalf("bound not decreasing in P: %v", r.Bound)
		}
		for j := range r.Gap[i] {
			if r.Gap[i][j] < 0 || math.IsNaN(r.Gap[i][j]) || r.GapHW[i][j] < 0 {
				t.Fatalf("gap[%d][%d] = %v ± %v", i, j, r.Gap[i][j], r.GapHW[i][j])
			}
			if r.Divergence[i][j] < 0 {
				t.Fatalf("divergence negative")
			}
			if i == 0 {
				continue
			}
			hi, lo := r.Divergence[i-1][j]-r.DivergenceHW[i-1][j], r.Divergence[i][j]+r.DivergenceHW[i][j]
			if lo >= hi {
				t.Errorf("α=%v: divergence %.3g±%.2g at P=%v does not fall clear of %.3g±%.2g at P=%v",
					r.Alphas[j], r.Divergence[i][j], r.DivergenceHW[i][j], r.Ps[i],
					r.Divergence[i-1][j], r.DivergenceHW[i-1][j], r.Ps[i-1])
			}
		}
	}
}

func TestRunFig6Seeds(t *testing.T) {
	r := RunFig6Seeds(data.TaskMNIST, Fast, []hfl.Strategy{core.NewMiddle(), core.NewOort()}, 0.5, []int64{1, 2}, 10)
	if len(r.Bands) != 2 || len(r.Stats) != 2 {
		t.Fatalf("bands/stats %d/%d", len(r.Bands), len(r.Stats))
	}
	if r.Stats[0].Runs != 2 {
		t.Fatalf("runs %d", r.Stats[0].Runs)
	}
	curves := r.MeanCurves()
	if len(curves) != 2 || curves[0].Name != "MIDDLE" {
		t.Fatalf("mean curves %v", curves)
	}
	if r.Table() == "" {
		t.Fatal("empty table")
	}
	for _, b := range r.Bands {
		for i := range b.Mean {
			if b.Mean[i] < 0 || b.Mean[i] > 1 || b.Std[i] < 0 {
				t.Fatalf("band %s values out of range", b.Name)
			}
		}
	}
}

func TestRunAblationShapes(t *testing.T) {
	setup := NewTaskSetup(data.TaskMNIST, Fast, 4)
	r := RunAblation(setup, 0.5, 4, 10)
	if len(r.Curves) != 4 || len(r.Results) != 4 {
		t.Fatalf("curves/results %d/%d", len(r.Curves), len(r.Results))
	}
	names := []string{"MIDDLE", "MIDDLE-Sel", "MIDDLE-Agg", "General"}
	for i, c := range r.Curves {
		if c.Name != names[i] {
			t.Fatalf("curve %d name %s", i, c.Name)
		}
	}
	if r.Table() == "" {
		t.Fatal("empty ablation table")
	}
}

func TestRunMobilityModels(t *testing.T) {
	setup := NewTaskSetup(data.TaskMNIST, Fast, 4)
	r := RunMobilityModels(setup, 0.4, 4, 10)
	if len(r.Curves) != 2 {
		t.Fatalf("curves %d", len(r.Curves))
	}
	if r.EmpiricalP["Markov"] <= 0 || r.EmpiricalP["Waypoint"] <= 0 {
		t.Fatalf("empirical mobilities %v", r.EmpiricalP)
	}
}

func TestPaperScaleTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale dataset generation is slow")
	}
	s := NewTaskSetup(data.TaskMNIST, Paper, 1)
	if s.Edges != 10 || s.Devices != 100 || s.K != 5 {
		t.Fatalf("paper topology %d/%d/%d", s.Edges, s.Devices, s.K)
	}
	if s.I != 10 || s.Tc != 10 {
		t.Fatalf("paper I/Tc %d/%d", s.I, s.Tc)
	}
	if s.TargetAcc != 0.95 {
		t.Fatalf("paper MNIST target %v", s.TargetAcc)
	}
	if got := s.Train.Shape[1]; got != 28 {
		t.Fatalf("paper MNIST geometry %v", s.Train.Shape)
	}
	net := s.Factory(tensor.NewRNG(1))
	// The 2-conv/2-fc paper CNN on 28×28 has ~56k parameters.
	if net.NumParams() < 20_000 {
		t.Fatalf("paper CNN only %d params", net.NumParams())
	}
	cfg := s.Config(1, 0)
	if cfg.Steps != 1500 {
		t.Fatalf("paper horizon %d", cfg.Steps)
	}
	part := s.Partition(1)
	if part.NumDevices() != 100 || len(part.Indices[0]) != 100 {
		t.Fatalf("paper partition %d devices × %d", part.NumDevices(), len(part.Indices[0]))
	}
}

// TestNewScaleSetup pins the population-scale contract: the corpus stays
// at the Fast size regardless of the device count, and the partition is
// the shared-window form whose index memory is O(corpus).
func TestNewScaleSetup(t *testing.T) {
	s := NewScaleSetup(data.TaskMNIST, 1, 50_000, 100, 2, 5)
	if s.Devices != 50_000 || s.Edges != 100 || s.K != 2 || s.Tc != 5 {
		t.Fatalf("topology overrides not applied: %+v", s)
	}
	base := NewTaskSetup(data.TaskMNIST, Fast, 1)
	if s.Train.Len() != base.Train.Len() {
		t.Fatalf("scale corpus %d != fast corpus %d — dataset must not grow with the population", s.Train.Len(), base.Train.Len())
	}
	p := s.Partition(1)
	if p.NumDevices() != 50_000 {
		t.Fatalf("partition devices = %d", p.NumDevices())
	}
	// Shared windows: two devices with the same wrapped offset alias the
	// same backing array entry.
	n := s.Train.Len()
	for m := 1; m < p.NumDevices(); m++ {
		if (m*s.PerDevice)%n == 0 {
			if &p.Shard(0)[0] != &p.Shard(m)[0] {
				t.Fatal("scale partition is not the shared-window form")
			}
			return
		}
	}
	t.Fatal("no wrapped window found")
}
