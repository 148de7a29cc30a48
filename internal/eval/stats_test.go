package eval

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if Std([]float64{5}) != 0 {
		t.Fatal("Std singleton")
	}
	got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := math.Sqrt(32.0 / 7.0) // sample std
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", got, want)
	}
}

func TestAggregateSeries(t *testing.T) {
	runs := []Series{
		{Name: "MIDDLE", X: []int{10, 20}, Y: []float64{0.4, 0.8}},
		{Name: "MIDDLE", X: []int{10, 20}, Y: []float64{0.6, 1.0}},
	}
	b := AggregateSeries(runs)
	if b.Name != "MIDDLE" || len(b.Mean) != 2 {
		t.Fatalf("band %+v", b)
	}
	if b.Mean[0] != 0.5 || b.Mean[1] != 0.9 {
		t.Fatalf("means %v", b.Mean)
	}
	wantStd := math.Sqrt(0.02) // sample std of {0.4, 0.6}
	if math.Abs(b.Std[0]-wantStd) > 1e-12 {
		t.Fatalf("std %v, want %v", b.Std[0], wantStd)
	}
	ms := b.MeanSeries()
	if ms.Y[1] != 0.9 {
		t.Fatalf("MeanSeries %v", ms)
	}
}

func TestAggregateSeriesPanics(t *testing.T) {
	for name, runs := range map[string][]Series{
		"empty":    nil,
		"ragged":   {{X: []int{1}, Y: []float64{1}}, {X: []int{1, 2}, Y: []float64{1, 2}}},
		"gridskew": {{X: []int{1}, Y: []float64{1}}, {X: []int{2}, Y: []float64{1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			AggregateSeries(runs)
		}()
	}
}

func TestAggregateTTA(t *testing.T) {
	st := AggregateTTA([]TTAResult{
		{Strategy: "OORT", Steps: 100, Reached: true, FinalAcc: 0.9},
		{Strategy: "OORT", Steps: 200, Reached: true, FinalAcc: 0.8},
		{Strategy: "OORT", Reached: false, FinalAcc: 0.5},
	})
	if st.Reached != 2 || st.Runs != 3 {
		t.Fatalf("reached/runs %d/%d", st.Reached, st.Runs)
	}
	if st.MeanSteps != 150 {
		t.Fatalf("mean steps %v", st.MeanSteps)
	}
	if math.Abs(st.MeanFinal-(0.9+0.8+0.5)/3) > 1e-12 {
		t.Fatalf("mean final %v", st.MeanFinal)
	}
}

func TestAggregateTTAPanicsOnMixedStrategies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AggregateTTA([]TTAResult{{Strategy: "A"}, {Strategy: "B"}})
}

func TestTTAStatsTable(t *testing.T) {
	out := TTAStatsTable([]TTAStats{
		{Strategy: "MIDDLE", MeanSteps: 100, StdSteps: 5, Reached: 3, Runs: 3, MeanFinal: 0.95},
		{Strategy: "OORT", MeanSteps: 151, StdSteps: 10, Reached: 3, Runs: 3, MeanFinal: 0.93},
		{Strategy: "Greedy", Reached: 0, Runs: 3, MeanFinal: 0.70},
	}, "MIDDLE", 0.9)
	if !strings.Contains(out, "1.51×") {
		t.Fatalf("missing speedup:\n%s", out)
	}
	if !strings.Contains(out, "0/3") {
		t.Fatalf("missing unreached count:\n%s", out)
	}
	if !strings.Contains(out, "100.0 ± 5.0") {
		t.Fatalf("missing mean ± std:\n%s", out)
	}
}
