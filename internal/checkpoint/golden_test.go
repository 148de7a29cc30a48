package checkpoint

// Record bytes pinned against files written by the writers this codec
// replaced (the commit before the byte-slice codec): a v3 handover, a v4
// state with membership, a v2 state without it and a v1 model file.
// Their vectors hold the values a lossy codec would normalise.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// awkward holds a NaN with payload, −0, ±Inf and a denormal.
func awkward() []float64 {
	return []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1.5, -2.25,
	}
}

func goldenHandover() Handover {
	return Handover{
		Device: 7, SrcEdge: 1, DestEdge: 2, Generation: 3,
		Round: 12, LastSync: 10, LastTrained: 11, Steps: 42, DataSize: 30,
		StatUtil:   math.Float64frombits(0x7ff8_0000_0000_0abc),
		Model:      awkward(),
		MomentLens: []int{4, 0, 3},
		Moments:    awkward(),
	}
}

func goldenPlainState() State {
	return State{
		Name: "global", Round: 42, Model: awkward(),
		EdgeWeights: map[int]float64{0: 120, 3: 45.5, 7: math.Copysign(0, -1)},
	}
}

func goldenMembershipState() State {
	st := goldenPlainState()
	st.Round = 57
	st.Epoch = 9
	st.Assignment = map[int]int{0: 2, 3: 0, 11: 1}
	return st
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// statesSameBits is statesEqual at the bit level, membership included.
func statesSameBits(a, b State) bool {
	if a.Name != b.Name || a.Round != b.Round || a.Epoch != b.Epoch || !sameBits(a.Model, b.Model) ||
		len(a.EdgeWeights) != len(b.EdgeWeights) || len(a.Assignment) != len(b.Assignment) {
		return false
	}
	for id, w := range a.EdgeWeights {
		if got, ok := b.EdgeWeights[id]; !ok || math.Float64bits(got) != math.Float64bits(w) {
			return false
		}
	}
	for dev, edge := range a.Assignment {
		if got, ok := b.Assignment[dev]; !ok || got != edge {
			return false
		}
	}
	return true
}

func readGolden(t testing.TB, elem ...string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(append([]string{"testdata"}, elem...)...))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func encodeState(t *testing.T, st State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHandoverGoldenV3(t *testing.T) {
	golden := readGolden(t, "handover_v3.golden")
	raw, err := EncodeHandoverBytes(goldenHandover())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Fatalf("handover record bytes moved\n got %x\nwant %x", raw, golden)
	}
	h, err := DecodeHandoverBytes(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !handoversEqual(h, goldenHandover()) {
		t.Fatalf("golden handover decodes to %+v", h)
	}
}

func TestStateGoldenV4(t *testing.T) {
	golden := readGolden(t, "resume", "global-r000057.ckpt")
	if raw := encodeState(t, goldenMembershipState()); !bytes.Equal(raw, golden) {
		t.Fatalf("v4 state record bytes moved\n got %x\nwant %x", raw, golden)
	}
	st, err := LoadState(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !statesSameBits(st, goldenMembershipState()) {
		t.Fatalf("golden v4 state decodes to %+v", st)
	}
}

// TestStateV2StillLoads: a plain state written before this codec is a v2
// record and must keep loading; written again it is the same fields
// under version 4 with an empty membership section (epoch 0, 0 devices).
func TestStateV2StillLoads(t *testing.T) {
	v2 := readGolden(t, "resume", "global-r000042.ckpt")
	if v2[4] != 2 {
		t.Fatalf("fixture is version %d, want 2", v2[4])
	}
	st, err := LoadState(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if !statesSameBits(st, goldenPlainState()) {
		t.Fatalf("v2 state decodes to %+v", st)
	}
	v4 := encodeState(t, st)
	fields := v2[5 : len(v2)-4]
	if v4[4] != 4 || !bytes.Equal(v4[5:5+len(fields)], fields) ||
		!bytes.Equal(v4[5+len(fields):len(v4)-4], make([]byte, 12)) {
		t.Fatalf("plain state rewritten as\n%x\nwant version 4, the v2 fields and 12 zero bytes\n%x", v4, v2)
	}
}

func TestModelV1Refused(t *testing.T) {
	_, err := LoadState(bytes.NewReader(readGolden(t, "model_v1.golden")))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 model file: error %v, want a refusal naming version 1", err)
	}
	if _, err := DecodeHandoverBytes(readGolden(t, "resume", "global-r000057.ckpt")); err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("state record as handover: error %v, want a refusal naming version 4", err)
	}
}

// TestLoadLatestOverParentDirectory resumes from a directory the
// previous writers left — a v2 record at round 42 and a v4 record at
// round 57 — and must pick what they picked: round 57.
func TestLoadLatestOverParentDirectory(t *testing.T) {
	st, ok, err := LoadLatestNamed(filepath.Join("testdata", "resume"), "global")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !statesSameBits(st, goldenMembershipState()) {
		t.Fatalf("resumed from %+v, want the round-57 record", st)
	}
}
