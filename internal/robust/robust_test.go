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
	if st != 2 {
		t.Errorf("trimmed %d values, want 2", st)
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
	if st != 0 {
		t.Errorf("degraded trimmed mean dropped %d values, want 0", st)
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

// screened offers vecs with weights to a fresh point screening with vc
// and returns the Combine result and the combined model.
func screened(vc ValidatorConfig, vecs [][]float64, weights []float64) (Combined, []float64) {
	p := NewPoint(AggMean, vc, nil)
	for i, v := range vecs {
		p.Offer(v, weights[i])
	}
	dst := make([]float64, len(vecs[0]))
	return p.Combine(dst, make([]float64, len(dst)), 1), dst
}

func TestValidatorRejectsNonFinite(t *testing.T) {
	vecs := [][]float64{
		{1, 2},
		{math.NaN(), 0},
		{3, 4},
		{0, math.Inf(1)},
	}
	out, dst := screened(ValidatorConfig{Enabled: true}, vecs, []float64{1, 2, 3, 4})
	if out.Rejects.NonFinite != 2 || out.Rejects.Norm != 0 {
		t.Fatalf("RejectCounts = %+v", out.Rejects)
	}
	// The survivors are {1, 2} at weight 1 and {3, 4} at weight 3.
	if out.Kept != 2 || out.Weight != 4 || !almostEq(dst, []float64{2.5, 3.5}, 1e-12) {
		t.Fatalf("kept %d at weight %v, combined %v", out.Kept, out.Weight, dst)
	}
}

func TestValidatorNormBound(t *testing.T) {
	// norms 1, 1.5, 2, 100; median 1.75; bound 5.25 → reject the 100.
	out, _ := screened(ValidatorConfig{Enabled: true, NormBound: 3}, [][]float64{{1}, {1.5}, {2}, {-100}}, []float64{1, 1, 1, 1})
	if out.Rejects.Norm != 1 || out.Rejects.NonFinite != 0 {
		t.Fatalf("RejectCounts = %+v", out.Rejects)
	}
	if out.Kept != 3 {
		t.Fatalf("kept %d updates, want 3", out.Kept)
	}
}

func TestValidatorSkipsNormWithFewUpdates(t *testing.T) {
	out, _ := screened(ValidatorConfig{Enabled: true, NormBound: 1}, [][]float64{{1}, {100}}, []float64{1, 1})
	if out.Kept != 2 || out.Rejects.Total() != 0 {
		t.Fatalf("norm check should be skipped below 3 survivors: %+v", out)
	}
}

func TestNilValidatorKeepsAll(t *testing.T) {
	out, _ := screened(ValidatorConfig{}, [][]float64{{math.NaN()}}, []float64{1})
	if out.Kept != 1 || out.Rejects.Total() != 0 {
		t.Fatal("a point without a screen must keep everything")
	}
	if NewPoint(AggMean, ValidatorConfig{}, nil).Validating() {
		t.Fatal("a disabled config must not screen")
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

// The shared aggregate step: nil vectors and non-positive weights are never
// offered, rejections are tallied, a cohort below the quorum leaves dst
// alone and reports weight 0, and a sufficient one is combined in the
// order it was offered.
func TestPointCombine(t *testing.T) {
	offer := func(p *Point, vecs [][]float64, weights []float64) {
		for i, v := range vecs {
			p.Offer(v, weights[i])
		}
	}
	p := NewPoint(AggMean, ValidatorConfig{Enabled: true}, nil)
	ref := []float64{0, 0}
	dst := []float64{7, 7}
	vecs := [][]float64{{2, 4}, {math.NaN(), 0}, {4, 8}}
	offer(p, vecs, []float64{1, 5, 3})
	out := p.Combine(dst, ref, 3)
	if out.Applied || out.Kept != 2 || out.Weight != 0 || out.Rejects.NonFinite != 1 || dst[0] != 7 {
		t.Fatalf("below quorum: %+v, dst %v", out, dst)
	}
	// A dropped device (nil) and a zero or negative weight are left out of
	// Eq. 6: they are neither seen nor rejected, and the weight is the
	// rest's.
	offer(p, append(vecs, nil, []float64{100, 100}, []float64{-100, 0}), []float64{1, 5, 3, 2, 0, -1})
	out = p.Combine(dst, ref, 2)
	if !out.Applied || out.Kept != 2 || out.Weight != 4 || !almostEq(dst, []float64{3.5, 7}, 1e-12) {
		t.Fatalf("combine: %+v, dst %v", out, dst)
	}
	if p.Seen != 6 || p.Rejected.NonFinite != 2 || p.Rejected.Total() != 2 {
		t.Fatalf("tallies: seen %d, rejected %+v", p.Seen, p.Rejected)
	}
	// Nothing offered is a cohort below any quorum.
	if out := p.Combine(dst, ref, 1); out.Applied || out.Kept != 0 || p.Seen != 6 {
		t.Fatalf("empty combine: %+v, seen %d", out, p.Seen)
	}
}

// TestCombineLeavesCallerSlices: a Combine that rejects one NaN update
// and one norm outlier compacts the point's own list of offers, so the
// caller's vecs and weights hold, element by element, what they held
// before, and no offered vector is written to; a caller that walks them
// afterwards (a fednet edge freeing Eq. 6's inputs) sees every update
// once. The kept updates are the three in range, combined in the order
// offered.
func TestCombineLeavesCallerSlices(t *testing.T) {
	p := NewPoint(AggMean, ValidatorConfig{Enabled: true, NormBound: 3}, nil)
	nan, far := []float64{math.NaN()}, []float64{-100}
	vecs := [][]float64{{1}, nan, {1.5}, far, {2}}
	weights := []float64{1, 2, 3, 4, 5}
	wantVecs := append([][]float64(nil), vecs...)
	wantVals := []float64{1, math.NaN(), 1.5, -100, 2}
	wantWeights := append([]float64(nil), weights...)
	for i, v := range vecs {
		p.Offer(v, weights[i])
	}
	dst := []float64{0}
	out := p.Combine(dst, []float64{0}, 1)
	if !out.Applied || out.Kept != 3 || out.Rejects.NonFinite != 1 || out.Rejects.Norm != 1 || out.Weight != 9 {
		t.Fatalf("combine: %+v", out)
	}
	if want := (1*1 + 3*1.5 + 5*2) / 9.0; math.Abs(dst[0]-want) > 1e-12 {
		t.Fatalf("combined %v, want %v", dst[0], want)
	}
	for i := range vecs {
		same := vecs[i][0] == wantVals[i] || (math.IsNaN(vecs[i][0]) && math.IsNaN(wantVals[i]))
		if &vecs[i][0] != &wantVecs[i][0] || !same || weights[i] != wantWeights[i] {
			t.Fatalf("entry %d of the caller's slices changed: vec %v weight %v, was %v weight %v",
				i, vecs[i], weights[i], wantVals[i], wantWeights[i])
		}
	}
}

// A steady round of offers and one Combine allocates nothing once the
// point's offer buffer has grown to a round's replies.
func TestPointOffersReuseStorage(t *testing.T) {
	p := NewPoint(AggTrimmedMean, ValidatorConfig{Enabled: true, NormBound: 3}, nil)
	vecs := [][]float64{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {50, 60}}
	dst, ref := make([]float64, 2), make([]float64, 2)
	round := func() {
		for _, v := range vecs {
			p.Offer(v, 1)
		}
		p.Combine(dst, ref, 1)
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of offers allocates %v times, want 0", allocs)
	}
}
