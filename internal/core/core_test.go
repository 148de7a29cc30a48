package core

import (
	"math"
	"testing"

	"middle/internal/hfl"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// fakeView is a hand-wired hfl.View for strategy unit tests.
type fakeView struct {
	step    int
	cloud   []float64
	edges   map[int][]float64
	locals  map[int][]float64
	sizes   map[int]int
	utils   map[int]float64
	trained map[int]int
}

func newFakeView() *fakeView {
	return &fakeView{
		cloud:   []float64{1, 0},
		edges:   map[int][]float64{0: {1, 0}, 1: {0, 1}},
		locals:  map[int][]float64{},
		sizes:   map[int]int{},
		utils:   map[int]float64{},
		trained: map[int]int{},
	}
}

func (f *fakeView) Step() int                  { return f.step }
func (f *fakeView) CloudModel() []float64      { return f.cloud }
func (f *fakeView) EdgeModel(n int) []float64  { return f.edges[n] }
func (f *fakeView) LocalModel(m int) []float64 { return f.locals[m] }
func (f *fakeView) DataSize(m int) int         { return f.sizes[m] }
func (f *fakeView) StatUtility(m int) float64 {
	if u, ok := f.utils[m]; ok {
		return u
	}
	return math.NaN()
}
func (f *fakeView) LastTrained(m int) int {
	if t, ok := f.trained[m]; ok {
		return t
	}
	return -1
}

var _ hfl.View = (*fakeView)(nil)

func TestMiddleSelectPrefersDivergentDevices(t *testing.T) {
	v := newFakeView()
	v.cloud = []float64{1, 0}
	// Device 1's update is parallel to the cloud model (already learned);
	// device 2's update is orthogonal (new information); device 3's is
	// opposed (utility clipped to 0, same as orthogonal — both score 0,
	// but higher than device 1's negative score).
	v.locals[1] = []float64{2, 0} // Δw = (1,0): U = 1, score −1
	v.locals[2] = []float64{1, 1} // Δw = (0,1): U = 0, score 0
	v.locals[3] = []float64{0, 0} // Δw = (−1,0): U clipped, score 0
	got := NewMiddle().Select(v, 0, []int{1, 2, 3}, 2, tensor.NewRNG(4))
	set := map[int]bool{}
	for _, m := range got {
		set[m] = true
	}
	if set[1] {
		t.Fatalf("MIDDLE selected the aligned device: %v", got)
	}
	if !set[2] || !set[3] {
		t.Fatalf("MIDDLE selection = %v, want {2, 3}", got)
	}
}

func TestMiddleInitLocalStayed(t *testing.T) {
	v := newFakeView()
	v.locals[7] = []float64{9, 9}
	got := NewMiddle().InitLocal(v, 7, 0, false)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("stayed device init %v, want edge model", got)
	}
	// The engine only reads the start vector (hfl.Strategy.InitLocal), so
	// a start that is not a blend is the view's vector itself, not a copy;
	// hfl's and fednet's alias-contract tests pin the engines' half.
	if &got[0] != &v.edges[0][0] {
		t.Fatal("InitLocal copied the edge model")
	}
}

func TestMiddleInitLocalMovedMatchesEq9(t *testing.T) {
	v := newFakeView()
	v.locals[7] = []float64{1, 1}
	got := NewMiddle().InitLocal(v, 7, 0, true)
	want, u := simil.OnDeviceAggregate(v.edges[0], v.locals[7])
	if u <= 0 || u >= 1 {
		t.Fatalf("test setup degenerate: u = %v", u)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("InitLocal = %v, want Eq.9 result %v", got, want)
		}
	}
}

func TestMiddleInitLocalMovedOpposedKeepsEdgeModel(t *testing.T) {
	v := newFakeView()
	v.locals[7] = []float64{-1, 0} // opposed to edge model (1, 0)
	got := NewMiddle().InitLocal(v, 7, 0, true)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("opposed local model leaked into init: %v", got)
	}
}

func TestOortSelectExploresUnseenFirst(t *testing.T) {
	v := newFakeView()
	v.utils[1] = 100
	v.utils[2] = 50
	// Device 3 never trained: must be explored before the known ones.
	got := NewOort().Select(v, 0, []int{1, 2, 3}, 2, tensor.NewRNG(1))
	set := map[int]bool{}
	for _, m := range got {
		set[m] = true
	}
	if !set[3] {
		t.Fatalf("OORT did not explore unseen device: %v", got)
	}
	if !set[1] {
		t.Fatalf("OORT skipped the highest-utility device: %v", got)
	}
}

func TestOortInitIgnoresLocalModel(t *testing.T) {
	v := newFakeView()
	v.locals[4] = []float64{5, 5}
	got := NewOort().InitLocal(v, 4, 1, true)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("OORT moved-device init %v, want edge model", got)
	}
}

func TestFedMesBlendsHalfHalf(t *testing.T) {
	v := newFakeView()
	v.locals[4] = []float64{1, 1}
	got := NewFedMes().InitLocal(v, 4, 0, true)
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("FedMes moved init %v, want [1 0.5]", got)
	}
	stay := NewFedMes().InitLocal(v, 4, 0, false)
	if stay[0] != 1 || stay[1] != 0 {
		t.Fatalf("FedMes stay init %v", stay)
	}
}

func TestGreedyKeepsLocalModelWhenMoved(t *testing.T) {
	v := newFakeView()
	v.locals[4] = []float64{7, 8}
	got := NewGreedy().InitLocal(v, 4, 0, true)
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("Greedy moved init %v, want carried model", got)
	}
	if &got[0] != &v.locals[4][0] {
		t.Fatal("Greedy copied the local model")
	}
}

func TestEnsembleCombinesOortSelectionWithBlending(t *testing.T) {
	v := newFakeView()
	v.utils[1] = 10
	v.utils[2] = 90
	v.locals[2] = []float64{1, 1}
	sel := NewEnsemble().Select(v, 0, []int{1, 2}, 1, tensor.NewRNG(2))
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("Ensemble selection %v, want [2]", sel)
	}
	init := NewEnsemble().InitLocal(v, 2, 0, true)
	if math.Abs(init[0]-1) > 1e-12 || math.Abs(init[1]-0.5) > 1e-12 {
		t.Fatalf("Ensemble moved init %v", init)
	}
}

func TestGeneralRandomSelectionRespectsK(t *testing.T) {
	v := newFakeView()
	cands := []int{1, 2, 3, 4, 5}
	got := NewGeneral().Select(v, 0, cands, 3, tensor.NewRNG(3))
	if len(got) != 3 {
		t.Fatalf("General selected %d", len(got))
	}
	seen := map[int]bool{}
	for _, m := range got {
		if seen[m] {
			t.Fatalf("General selected %d twice", m)
		}
		seen[m] = true
	}
	// k > len(candidates) caps.
	if got := NewGeneral().Select(v, 0, []int{1}, 5, tensor.NewRNG(3)); len(got) != 1 {
		t.Fatalf("General overlong selection %v", got)
	}
}

func TestFixedAlphaBlends(t *testing.T) {
	v := newFakeView()
	v.locals[4] = []float64{1, 1}
	got := NewFixedAlpha(0.25).InitLocal(v, 4, 0, true)
	// (1−0.25)·(1,0) + 0.25·(1,1) = (1, 0.25)
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-0.25) > 1e-12 {
		t.Fatalf("FixedAlpha init %v", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName accepted unknown strategy")
	}
	if len(EvaluationSet()) != 5 {
		t.Fatalf("EvaluationSet has %d strategies", len(EvaluationSet()))
	}
	if EvaluationSet()[0].Name() != "MIDDLE" {
		t.Fatal("EvaluationSet must lead with MIDDLE")
	}
}

func TestMiddleSelOnly(t *testing.T) {
	v := newFakeView()
	v.cloud = []float64{1, 0}
	v.locals[1] = []float64{2, 0} // aligned update: worst score
	v.locals[2] = []float64{1, 1} // divergent update: best score
	sel := NewMiddleSelOnly().Select(v, 0, []int{1, 2}, 1, tensor.NewRNG(1))
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("MIDDLE-Sel selection %v, want [2]", sel)
	}
	// Aggregation must be disabled: moved device adopts the edge model.
	init := NewMiddleSelOnly().InitLocal(v, 2, 0, true)
	if init[0] != 1 || init[1] != 0 {
		t.Fatalf("MIDDLE-Sel moved init %v, want edge model", init)
	}
}

func TestMiddleAggOnly(t *testing.T) {
	v := newFakeView()
	v.locals[2] = []float64{1, 1}
	// Aggregation follows Eq. 9 exactly.
	got := NewMiddleAggOnly().InitLocal(v, 2, 0, true)
	want, _ := simil.OnDeviceAggregate(v.edges[0], v.locals[2])
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MIDDLE-Agg init %v, want %v", got, want)
		}
	}
	// Selection is random but must respect k and uniqueness.
	sel := NewMiddleAggOnly().Select(v, 0, []int{1, 2, 3, 4}, 2, tensor.NewRNG(2))
	if len(sel) != 2 || sel[0] == sel[1] {
		t.Fatalf("MIDDLE-Agg selection %v", sel)
	}
}

func TestAblationSetComposition(t *testing.T) {
	set := AblationSet()
	want := []string{"MIDDLE", "MIDDLE-Sel", "MIDDLE-Agg", "General"}
	if len(set) != len(want) {
		t.Fatalf("ablation set size %d", len(set))
	}
	for i, s := range set {
		if s.Name() != want[i] {
			t.Fatalf("ablation[%d] = %s, want %s", i, s.Name(), want[i])
		}
	}
}
