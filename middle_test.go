package middle_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"middle"
)

// These tests exercise the public facade end to end: everything a
// downstream user can reach without touching internal packages.

func TestPublicQuickstartFlow(t *testing.T) {
	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, 1)
	part := setup.Partition(1)
	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, 0.5, 1)
	sim := middle.NewSimulation(setup.Config(1, 10), setup.Factory, part, setup.Test, mob, middle.MIDDLE())
	h := sim.Run()
	if h.Len() == 0 {
		t.Fatal("no evaluations recorded")
	}
	if h.FinalAcc() <= 0 || h.FinalAcc() > 1 {
		t.Fatalf("final accuracy %v", h.FinalAcc())
	}
	if h.Strategy != "MIDDLE" {
		t.Fatalf("history strategy %q", h.Strategy)
	}
}

func TestPublicStrategyRegistry(t *testing.T) {
	for _, n := range []string{"MIDDLE", "OORT", "FedMes", "Greedy", "Ensemble", "General"} {
		s, err := middle.StrategyByName(n)
		if err != nil || s.Name() != n {
			t.Fatalf("ByName(%q) -> %v, %v", n, s, err)
		}
	}
	if _, err := middle.StrategyByName("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if got := len(middle.EvaluationSet()); got != 5 {
		t.Fatalf("evaluation set %d", got)
	}
}

func TestPublicSimilarityMath(t *testing.T) {
	agg, u := middle.OnDeviceAggregate([]float64{2, 0}, []float64{4, 0})
	if math.Abs(u-1) > 1e-12 || math.Abs(agg[0]-3) > 1e-12 {
		t.Fatalf("aggregate %v u %v", agg, u)
	}
	if _, u := middle.OnDeviceAggregate([]float64{1, 0}, []float64{-1, 0}); u != 0 {
		t.Fatalf("opposed utility %v", u)
	}
}

func TestPublicMobilityAndTraces(t *testing.T) {
	mob := middle.NewMarkovMobility(4, 12, 0.3, 9)
	tr := middle.RecordTrace(mob, 30)
	if tr.Steps() != 30 || tr.NumDevices() != 12 {
		t.Fatalf("trace %d steps %d devices", tr.Steps(), tr.NumDevices())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := middle.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.EmpiricalMobility() != tr.EmpiricalMobility() {
		t.Fatal("trace round trip changed mobility")
	}
	wp := middle.NewRandomWaypointMobility(2, 2, 8, 0.05, 0.1, 1, 3)
	if wp.NumEdges() != 4 {
		t.Fatalf("waypoint edges %d", wp.NumEdges())
	}
}

func TestPublicDatasets(t *testing.T) {
	tasks := middle.AllTasks()
	if len(tasks) != 4 || tasks[0] != middle.TaskMNIST || tasks[3] != middle.TaskSpeech {
		t.Fatalf("tasks %v, want the paper's four in paper order", tasks)
	}
}

func TestPublicReporting(t *testing.T) {
	sm := middle.Smooth([]float64{0, 3, 0}, 3)
	if sm[1] != 1 {
		t.Fatalf("smooth %v", sm)
	}
	table := middle.SpeedupTable([]middle.TTAResult{
		{Strategy: "MIDDLE", Steps: 10, Reached: true, FinalAcc: 0.9},
		{Strategy: "OORT", Steps: 20, Reached: true, FinalAcc: 0.8},
	}, "MIDDLE", 0.8)
	if !strings.Contains(table, "2.00×") {
		t.Fatalf("table missing speedup:\n%s", table)
	}
	chart := middle.LineChart("t", []middle.Series{{Name: "a", X: []int{0, 1}, Y: []float64{0, 1}}}, 20, 5)
	if !strings.Contains(chart, "a") {
		t.Fatal("chart missing legend")
	}
	bars := middle.BarChart("t", []string{"x"}, []string{"g"}, [][]float64{{0.5}}, 10)
	if !strings.Contains(bars, "0.5000") {
		t.Fatal("bars missing value")
	}
	var buf bytes.Buffer
	if err := middle.WriteSeriesCSV(&buf, []middle.Series{{Name: "a", X: []int{1}, Y: []float64{0.5}}}); err != nil {
		t.Fatal(err)
	}
	series, err := middle.ReadSeriesCSV(&buf)
	if err != nil || len(series) != 1 || series[0].Y[0] != 0.5 {
		t.Fatalf("csv round trip: %v %v", series, err)
	}
}

func TestPublicTheoremBound(t *testing.T) {
	lo := middle.TheoremBound(middle.BoundParams{Beta: 1, Mu: 1, Gamma: 10, T: 100, B: 1, InitDist2: 1, I: 5, G2: 1, Alpha: 0.5, P: 1.0})
	hi := middle.TheoremBound(middle.BoundParams{Beta: 1, Mu: 1, Gamma: 10, T: 100, B: 1, InitDist2: 1, I: 5, G2: 1, Alpha: 0.5, P: 0.1})
	if lo >= hi {
		t.Fatalf("bound not decreasing in P: %v vs %v", lo, hi)
	}
}

func TestPublicCustomStrategyInterface(t *testing.T) {
	// A user-defined strategy compiles and runs against the engine.
	type randomish struct{ middle.Strategy }
	base := middle.General()
	custom := randomish{base}
	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, 2)
	part := setup.Partition(2)
	mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, 0, 2)
	sim := middle.NewSimulation(setup.Config(2, 5), setup.Factory, part, setup.Test, mob, custom)
	if sim.Run().Len() == 0 {
		t.Fatal("custom strategy run recorded nothing")
	}
}
