package robust

import (
	"math"
	"testing"
)

func almostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestParseAggregator(t *testing.T) {
	for _, s := range []string{"", "mean", "trimmed-mean"} {
		if _, err := ParseAggregator(s); err != nil {
			t.Errorf("ParseAggregator(%q): %v", s, err)
		}
	}
	if _, err := ParseAggregator("median"); err == nil {
		t.Error("ParseAggregator accepted unknown kind")
	}
}

// Hand-computed aggregation tables, including a poisoned column.
func TestAggregatorsHandComputed(t *testing.T) {
	vecs := [][]float64{
		{1, 10, -1},
		{2, 20, 0},
		{3, 30, 1},
		{4, 40, 2},
		{100, -500, 3}, // outlier
	}
	weights := []float64{1, 1, 1, 1, 1}

	cases := []struct {
		name string
		agg  Aggregator
		want []float64
	}{
		{"mean", Aggregator{Kind: AggMean}, []float64{22, -80, 1}},
		// β=0.2, n=5 → trim 1 from each end: mean of middle three.
		{"trimmed", Aggregator{Kind: AggTrimmedMean}, []float64{3, 20, 1}},
	}
	for _, tc := range cases {
		dst := make([]float64, 3)
		tc.agg.AggregateInto(dst, vecs, weights, nil)
		if !almostEq(dst, tc.want, 1e-12) {
			t.Errorf("%s: got %v want %v", tc.name, dst, tc.want)
		}
	}
}

func TestTrimmedMeanStats(t *testing.T) {
	a := Aggregator{Kind: AggTrimmedMean}
	vecs := [][]float64{{1}, {2}, {3}, {4}, {5}}
	dst := make([]float64, 1)
	st := a.AggregateInto(dst, vecs, []float64{1, 1, 1, 1, 1}, nil)
	if st.TrimmedValues != 2 {
		t.Errorf("TrimmedValues = %d, want 2", st.TrimmedValues)
	}
	if dst[0] != 3 {
		t.Errorf("trimmed mean = %v, want 3", dst[0])
	}
	// Too few vectors to trim a full β share on each side: degrade, not
	// empty.
	st = a.AggregateInto(dst, [][]float64{{1}, {9}}, []float64{1, 1}, nil)
	if dst[0] != 5 {
		t.Errorf("degraded trimmed mean = %v, want 5", dst[0])
	}
	if st.TrimmedValues != 0 {
		t.Errorf("degraded TrimmedValues = %d, want 0", st.TrimmedValues)
	}
}

func TestMeanMatchesSimilBitwise(t *testing.T) {
	vecs := [][]float64{{0.1, 0.7, -3}, {2.5, 1e-9, 4}}
	w := []float64{3, 7}
	var a Aggregator // zero value: mean
	got := make([]float64, 3)
	a.AggregateInto(got, vecs, w, nil)
	want := make([]float64, 3)
	// Reference computation identical to simil.WeightedAverageInto.
	tw := w[0] + w[1]
	for j := range want {
		want[j] = w[0]/tw*vecs[0][j] + w[1]/tw*vecs[1][j]
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("coord %d: %v != %v (must be bit-identical)", j, got[j], want[j])
		}
	}
}

func TestValidatorRejectsNonFinite(t *testing.T) {
	v := NewValidator(ValidatorConfig{Enabled: true})
	ref := []float64{0, 0}
	vecs := [][]float64{
		{1, 2},
		{math.NaN(), 0},
		{3, 4},
		{0, math.Inf(1)},
	}
	w := []float64{1, 2, 3, 4}
	kept, keptW, rc := v.Filter(ref, vecs, w)
	if rc.NonFinite != 2 || rc.Norm != 0 {
		t.Fatalf("RejectCounts = %+v", rc)
	}
	if len(kept) != 2 || kept[0][0] != 1 || kept[1][0] != 3 {
		t.Fatalf("kept = %v", kept)
	}
	if keptW[0] != 1 || keptW[1] != 3 {
		t.Fatalf("keptW = %v", keptW)
	}
}

func TestValidatorNormBound(t *testing.T) {
	v := NewValidator(ValidatorConfig{Enabled: true, NormBound: 3})
	ref := []float64{0}
	vecs := [][]float64{{1}, {1.5}, {2}, {-100}}
	w := []float64{1, 1, 1, 1}
	// norms 1, 1.5, 2, 100; median 1.75; bound 5.25 → reject the 100.
	kept, _, rc := v.Filter(ref, vecs, w)
	if rc.Norm != 1 || rc.NonFinite != 0 {
		t.Fatalf("RejectCounts = %+v", rc)
	}
	if len(kept) != 3 {
		t.Fatalf("kept %d updates, want 3", len(kept))
	}
}

func TestValidatorSkipsNormWithFewUpdates(t *testing.T) {
	v := NewValidator(ValidatorConfig{Enabled: true, NormBound: 1})
	kept, _, rc := v.Filter([]float64{0}, [][]float64{{1}, {100}}, []float64{1, 1})
	if len(kept) != 2 || rc.Total() != 0 {
		t.Fatalf("norm check should be skipped below 3 survivors: kept=%d rc=%+v", len(kept), rc)
	}
}

func TestNilValidatorKeepsAll(t *testing.T) {
	var v *Validator
	vecs := [][]float64{{math.NaN()}}
	kept, _, rc := v.Filter([]float64{0}, vecs, []float64{1})
	if len(kept) != 1 || rc.Total() != 0 {
		t.Fatal("nil validator must keep everything")
	}
	if NewValidator(ValidatorConfig{}) != nil {
		t.Fatal("disabled config must yield nil validator")
	}
}

func TestAdversaryMembershipDeterministic(t *testing.T) {
	a := Adversary{Fraction: 0.3, Seed: 42}
	b := Adversary{Fraction: 0.3, Seed: 42}
	c := Adversary{Fraction: 0.3, Seed: 43}
	same, diff := true, false
	nA := 0
	for m := 0; m < 200; m++ {
		if a.IsAdversary(m) != b.IsAdversary(m) {
			same = false
		}
		if a.IsAdversary(m) != c.IsAdversary(m) {
			diff = true
		}
		if a.IsAdversary(m) {
			nA++
		}
	}
	if !same {
		t.Error("same seed must mark the same devices")
	}
	if !diff {
		t.Error("different seeds should mark different devices")
	}
	if nA < 30 || nA > 90 {
		t.Errorf("fraction 0.3 marked %d/200 devices", nA)
	}
}

func TestCorruptModes(t *testing.T) {
	ref := []float64{1, 1}
	a := Adversary{Fraction: 1, Seed: 9, Scale: 1}
	got := []float64{2, 0}
	a.Corrupt(got, ref)
	if !almostEq(got, []float64{0, 2}, 0) {
		t.Errorf("sign-flip = %v, want [0 2]", got)
	}
	// Scale amplifies the flipped update; 0 means 1.
	a.Scale = 3
	got = []float64{2, 0}
	a.Corrupt(got, ref)
	if !almostEq(got, []float64{-2, 4}, 0) {
		t.Errorf("scale-3 sign-flip = %v, want [-2 4]", got)
	}
}

// The shared aggregate step: rejections are tallied, a cohort below the
// minimum leaves dst alone, and a sufficient one is combined.
func TestPointCombine(t *testing.T) {
	p := NewPoint(AggMean, ValidatorConfig{Enabled: true}, nil)
	ref := []float64{0, 0}
	dst := []float64{7, 7}
	vecs := [][]float64{{2, 4}, {math.NaN(), 0}, {4, 8}}
	out := p.Combine(dst, ref, vecs, []float64{1, 5, 3}, 3)
	if out.Applied || out.Kept != 2 || out.Weight != 4 || out.Rejects.NonFinite != 1 || dst[0] != 7 {
		t.Fatalf("below minimum: %+v, dst %v", out, dst)
	}
	vecs = [][]float64{{2, 4}, {math.NaN(), 0}, {4, 8}}
	out = p.Combine(dst, ref, vecs, []float64{1, 5, 3}, 2)
	if !out.Applied || !almostEq(dst, []float64{3.5, 7}, 1e-12) {
		t.Fatalf("combine: %+v, dst %v", out, dst)
	}
	p.NoteNonFinite()
	if p.Seen != 6 || p.Rejected.NonFinite != 3 || p.Rejected.Total() != 3 {
		t.Fatalf("tallies: seen %d, rejected %+v", p.Seen, p.Rejected)
	}
}
