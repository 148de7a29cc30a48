package mobility

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarkovInitialBalance(t *testing.T) {
	mk := NewMarkov(4, 100, 0.5, 1)
	first := mk.Step()
	// Step may have moved some devices, but counts should stay roughly
	// balanced; check the Reset state instead via a zero-probability model.
	mk0 := NewMarkov(4, 100, 0, 1)
	m := mk0.Step()
	counts := make([]int, 4)
	for _, e := range m {
		counts[e]++
	}
	for e, n := range counts {
		if n != 25 {
			t.Fatalf("edge %d has %d devices, want 25", e, n)
		}
	}
	_ = first
}

func TestMarkovZeroProbabilityNeverMoves(t *testing.T) {
	mk := NewMarkov(5, 20, 0, 3)
	prev := mk.Step()
	for i := 0; i < 50; i++ {
		cur := mk.Step()
		for m := range cur {
			if cur[m] != prev[m] {
				t.Fatalf("device %d moved with P=0", m)
			}
		}
		prev = cur
	}
}

func TestMarkovEmpiricalMobilityMatchesP(t *testing.T) {
	for _, p := range []float64{0.1, 0.3, 0.5} {
		mk := NewMarkov(10, 100, p, 7)
		tr := Record(mk, 300)
		got := tr.EmpiricalMobility()
		if math.Abs(got-p) > 0.03 {
			t.Fatalf("P=%v: empirical mobility %v", p, got)
		}
	}
}

func TestMarkovMovesToOtherEdge(t *testing.T) {
	// With P=1 and 2 edges, devices must alternate edges every step.
	mk := NewMarkov(2, 10, 1, 5)
	prev := mk.Step()
	for i := 0; i < 20; i++ {
		cur := mk.Step()
		for m := range cur {
			if cur[m] == prev[m] {
				t.Fatalf("device %d stayed with P=1", m)
			}
		}
		prev = cur
	}
}

func TestMarkovResetReplaysSameSequence(t *testing.T) {
	mk := NewMarkov(6, 30, 0.4, 11)
	a := Record(mk, 40)
	mk.Reset()
	b := Record(mk, 40)
	for tStep := range a.Memberships {
		for m := range a.Memberships[tStep] {
			if a.Memberships[tStep][m] != b.Memberships[tStep][m] {
				t.Fatalf("Reset did not replay: step %d device %d", tStep, m)
			}
		}
	}
}

func TestMarkovSingleEdgeNeverMoves(t *testing.T) {
	mk := NewMarkov(1, 5, 1, 2)
	tr := Record(mk, 10)
	if tr.EmpiricalMobility() != 0 {
		t.Fatal("single-edge model reported movement")
	}
}

// TestMarkovPerDeviceGlobalMobility: each device moves with its own P_m,
// so a device at 0 never leaves its edge and the trace's empirical
// mobility is the mean of the P_m (0.4 here).
func TestMarkovPerDeviceGlobalMobility(t *testing.T) {
	probs := []float64{0, 0.2, 0.4, 0.6, 0.8}
	tr := Record(NewMarkovPerDevice(3, probs, 1), 4000)
	for step, row := range tr.Memberships {
		if row[0] != tr.Memberships[0][0] {
			t.Fatalf("device 0 (P_m = 0) moved at step %d", step)
		}
	}
	if got := tr.EmpiricalMobility(); math.Abs(got-0.4) > 0.02 {
		t.Fatalf("empirical mobility %v, want 0.4 ± 0.02", got)
	}
}

func TestStaticModel(t *testing.T) {
	s := NewStatic(3, 7)
	a := s.Step()
	b := s.Step()
	for m := range a {
		if a[m] != m%3 || b[m] != a[m] {
			t.Fatalf("static membership wrong at device %d", m)
		}
	}
}

func TestRandomWaypointMembershipValid(t *testing.T) {
	w := NewRandomWaypoint(2, 5, 40, 0.02, 0.08, 2, 9)
	if w.NumEdges() != 10 {
		t.Fatalf("edges = %d", w.NumEdges())
	}
	tr := Record(w, 200)
	for tStep, row := range tr.Memberships {
		for m, e := range row {
			if e < 0 || e >= 10 {
				t.Fatalf("step %d device %d edge %d", tStep, m, e)
			}
		}
	}
	// Devices must actually move across edges at these speeds.
	if tr.EmpiricalMobility() == 0 {
		t.Fatal("waypoint model produced no movement")
	}
	// But not teleport every step.
	if tr.EmpiricalMobility() > 0.6 {
		t.Fatalf("waypoint mobility implausibly high: %v", tr.EmpiricalMobility())
	}
}

func TestRandomWaypointResetReplays(t *testing.T) {
	w := NewRandomWaypoint(3, 2, 15, 0.05, 0.1, 0, 13)
	a := Record(w, 50)
	w.Reset()
	b := Record(w, 50)
	for tStep := range a.Memberships {
		for m := range a.Memberships[tStep] {
			if a.Memberships[tStep][m] != b.Memberships[tStep][m] {
				t.Fatalf("waypoint Reset did not replay at step %d", tStep)
			}
		}
	}
}

func TestRandomWaypointPositionsStayInSquare(t *testing.T) {
	w := NewRandomWaypoint(2, 2, 10, 0.1, 0.3, 1, 17)
	for i := 0; i < 100; i++ {
		w.Step()
		for m := 0; m < 10; m++ {
			x, y := w.pos[m][0], w.pos[m][1]
			if x < 0 || x > 1 || y < 0 || y > 1 {
				t.Fatalf("device %d escaped to (%v, %v)", m, x, y)
			}
		}
	}
}

func TestTraceWriteReadRoundTrip(t *testing.T) {
	mk := NewMarkov(4, 12, 0.3, 21)
	tr := Record(mk, 25)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges != tr.Edges || got.Steps() != tr.Steps() || got.NumDevices() != tr.NumDevices() {
		t.Fatalf("header mismatch: %d/%d/%d", got.Edges, got.Steps(), got.NumDevices())
	}
	for tStep := range tr.Memberships {
		for m := range tr.Memberships[tStep] {
			if got.Memberships[tStep][m] != tr.Memberships[tStep][m] {
				t.Fatalf("round trip differs at step %d device %d", tStep, m)
			}
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad magic":    "not-a-trace v1 2 2 1\n0 1\n",
		"bad version":  "middle-trace v2 2 2 1\n0 1\n",
		"bad counts":   "middle-trace v1 0 2 1\n0 1\n",
		"truncated":    "middle-trace v1 2 2 3\n0 1\n",
		"wrong width":  "middle-trace v1 2 3 1\n0 1\n",
		"edge range":   "middle-trace v1 2 2 1\n0 5\n",
		"non-numeric":  "middle-trace v1 2 2 1\n0 x\n",
		"short header": "middle-trace v1 2\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted invalid input", name)
		}
	}
}

func TestReplayLoopsAndResets(t *testing.T) {
	tr := &Trace{Edges: 2, Memberships: [][]int{{0, 1}, {1, 0}}}
	r := tr.Replay()
	a := r.Step()
	b := r.Step()
	c := r.Step() // wraps to first row
	if a[0] != 0 || b[0] != 1 || c[0] != 0 {
		t.Fatalf("replay sequence wrong: %v %v %v", a, b, c)
	}
	r.Reset()
	if got := r.Step(); got[0] != 0 {
		t.Fatalf("after Reset got %v", got)
	}
}

// Property: any recorded Markov trace round-trips through the text codec.
func TestQuickTraceRoundTrip(t *testing.T) {
	f := func(seed int64, e8, d8, s8 uint8) bool {
		edges := 1 + int(e8%6)
		devices := 1 + int(d8%15)
		steps := int(s8 % 20)
		tr := Record(NewMarkov(edges, devices, 0.5, seed), steps)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if got.Steps() != steps {
			return false
		}
		for tt := range tr.Memberships {
			for m := range tr.Memberships[tt] {
				if got.Memberships[tt][m] != tr.Memberships[tt][m] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Markov memberships always partition devices over valid edges
// (paper Eq. 3: every device connects to exactly one edge).
func TestQuickMembershipValid(t *testing.T) {
	f := func(seed int64, e8 uint8, p float64) bool {
		edges := 1 + int(e8%8)
		p = math.Abs(p)
		p -= math.Floor(p) // wrap into [0,1)
		mk := NewMarkov(edges, 20, p, seed)
		for i := 0; i < 10; i++ {
			row := mk.Step()
			if len(row) != 20 {
				return false
			}
			for _, e := range row {
				if e < 0 || e >= edges {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovRingMovesOnlyToNeighbours(t *testing.T) {
	mk := NewMarkovRing(6, 30, 0.6, 9)
	prev := mk.Step()
	for i := 0; i < 100; i++ {
		cur := mk.Step()
		for m := range cur {
			if cur[m] == prev[m] {
				continue
			}
			d := (cur[m] - prev[m] + 6) % 6
			if d != 1 && d != 5 {
				t.Fatalf("device %d jumped %d -> %d (non-adjacent)", m, prev[m], cur[m])
			}
		}
		prev = cur
	}
}

func TestMarkovRingMobilityMatchesP(t *testing.T) {
	for _, p := range []float64{0.1, 0.5} {
		tr := Record(NewMarkovRing(8, 100, p, 3), 300)
		if got := tr.EmpiricalMobility(); math.Abs(got-p) > 0.03 {
			t.Fatalf("ring P=%v: empirical %v", p, got)
		}
	}
}

func TestMarkovRingTwoEdges(t *testing.T) {
	// With 2 edges, ring and uniform coincide; membership must stay valid.
	mk := NewMarkovRing(2, 10, 1, 4)
	prev := mk.Step()
	for i := 0; i < 20; i++ {
		cur := mk.Step()
		for m := range cur {
			if cur[m] == prev[m] {
				t.Fatalf("device %d stayed with P=1 on 2-edge ring", m)
			}
		}
		prev = cur
	}
}

func TestOccupancySharesSumToOne(t *testing.T) {
	tr := Record(NewMarkovRing(4, 20, 0.4, 5), 100)
	shares := tr.OccupancyShares()
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum %v", sum)
	}
	// Ring-Markov from a balanced start stays roughly balanced.
	for e, s := range shares {
		if s < 0.1 || s > 0.4 {
			t.Fatalf("edge %d share %v implausible", e, s)
		}
	}
}

func TestMeanSojournMatchesMobility(t *testing.T) {
	// Memoryless movement with probability p has mean sojourn ≈ 1/p.
	p := 0.25
	tr := Record(NewMarkov(5, 200, p, 9), 400)
	got := tr.MeanSojourn()
	if math.Abs(got-1/p) > 0.5 {
		t.Fatalf("mean sojourn %v, want ≈%v", got, 1/p)
	}
	if (&Trace{Edges: 2}).MeanSojourn() != 0 {
		t.Fatal("empty trace sojourn")
	}
}

// stepModels builds one of every model, for the Step storage contract.
func stepModels(devices int) map[string]func() Model {
	return map[string]func() Model{
		"markov":   func() Model { return NewMarkov(5, devices, 0.5, 3) },
		"ring":     func() Model { return NewMarkovRing(5, devices, 0.5, 3) },
		"waypoint": func() Model { return NewRandomWaypoint(3, 2, devices, 0.05, 0.2, 2, 3) },
		"static":   func() Model { return NewStatic(5, devices) },
		"replay":   func() Model { return Record(NewMarkov(5, devices, 0.5, 3), 7).Replay() },
	}
}

// TestStepResultSurvivesTheNextStep: Step returns the model's own
// storage, valid until the second following Step — the membership of
// step k is still intact beside that of step k+1, which is what the
// engines hold — and stepping into it draws the sequence a copying
// caller records.
func TestStepResultSurvivesTheNextStep(t *testing.T) {
	for name, build := range stepModels(40) {
		want := Record(build(), 30).Memberships
		m := build()
		prev := m.Step()
		for k := 1; k < 30; k++ {
			cur := m.Step()
			for d := range cur {
				if prev[d] != want[k-1][d] {
					t.Fatalf("%s: step %d's membership changed under step %d (device %d)", name, k-1, k, d)
				}
				if cur[d] != want[k][d] {
					t.Fatalf("%s: step %d device %d on edge %d, recorded trace says %d", name, k, d, cur[d], want[k][d])
				}
			}
			prev = cur
		}
	}
}

// TestStepAllocatesNothing: from its third call on, a step over 100,000
// devices allocates nothing (it used to return a fresh population-sized
// slice: 8 MB per step at a million devices).
func TestStepAllocatesNothing(t *testing.T) {
	for name, build := range stepModels(100_000) {
		m := build()
		m.Step()
		m.Step()
		if a := testing.AllocsPerRun(3, func() { m.Step() }); a != 0 {
			t.Errorf("%s: Step allocates %v times per call", name, a)
		}
	}
}

// TestRecordRowsAreDistinct: a trace outlives any number of steps, so
// Record copies every membership out of the model's storage.
func TestRecordRowsAreDistinct(t *testing.T) {
	for name, build := range stepModels(12) {
		rows := Record(build(), 6).Memberships
		for i := range rows {
			for j := range rows[:i] {
				if &rows[i][0] == &rows[j][0] {
					t.Fatalf("%s: rows %d and %d of a recorded trace share storage", name, j, i)
				}
			}
		}
	}
}
