package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func sampleState() State {
	return State{
		Name:  "global",
		Round: 42,
		Model: []float64{1.5, -2.25, 0, 3.75e-9},
		EdgeWeights: map[int]float64{
			0: 120,
			3: 45.5,
			7: 0,
		},
	}
}

func statesEqual(t *testing.T, got, want State) {
	t.Helper()
	if got.Name != want.Name || got.Round != want.Round {
		t.Fatalf("got %q round %d, want %q round %d", got.Name, got.Round, want.Name, want.Round)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("model length %d, want %d", len(got.Model), len(want.Model))
	}
	for i := range got.Model {
		if got.Model[i] != want.Model[i] {
			t.Fatalf("model[%d] = %v, want %v", i, got.Model[i], want.Model[i])
		}
	}
	if len(got.EdgeWeights) != len(want.EdgeWeights) {
		t.Fatalf("edge weights %v, want %v", got.EdgeWeights, want.EdgeWeights)
	}
	for id, w := range want.EdgeWeights {
		if got.EdgeWeights[id] != w {
			t.Fatalf("edge %d weight %v, want %v", id, got.EdgeWeights[id], w)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	want := sampleState()
	var buf bytes.Buffer
	if err := SaveState(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, got, want)
}

func TestStateRoundTripEmptyWeights(t *testing.T) {
	want := State{Name: "g", Round: 1, Model: []float64{1}}
	var buf bytes.Buffer
	if err := SaveState(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 || len(got.EdgeWeights) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestStateSaveDeterministic pins the sorted-edge-id encoding: two saves
// of the same state are byte-identical (map order must not leak in).
func TestStateSaveDeterministic(t *testing.T) {
	st := sampleState()
	var a, b bytes.Buffer
	if err := SaveState(&a, st); err != nil {
		t.Fatal(err)
	}
	if err := SaveState(&b, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ byte-wise")
	}
}

// TestStateTornWriteRejected truncates a record at every possible length
// and checks no prefix ever loads as a valid state.
func TestStateTornWriteRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := LoadState(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", n, len(full))
		}
	}
}

// TestStateCorruptionRejected flips one byte at a time and checks the
// CRC rejects every corrupted record.
func TestStateCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		if st, err := LoadState(bytes.NewReader(mut)); err == nil {
			// A flip in the magic version byte may yield a structurally
			// different but internally consistent record only if the CRC
			// happened to collide — that must never occur for 1-bit flips.
			t.Fatalf("bit flip at byte %d loaded successfully as %+v", i, st)
		}
	}
}

func TestSaveStateFileLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for round := 1; round <= 3; round++ {
		st := sampleState()
		st.Round = round
		st.Model[0] = float64(round)
		if _, err := SaveStateFile(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	st, ok, err := LoadLatest(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st.Round != 3 || st.Model[0] != 3 {
		t.Fatalf("latest = round %d model[0] %v, want round 3", st.Round, st.Model[0])
	}
}

// TestLoadLatestSkipsTorn writes a valid checkpoint then a newer torn
// one; LoadLatest must fall back to the older valid record.
func TestLoadLatestSkipsTorn(t *testing.T) {
	dir := t.TempDir()
	good := sampleState()
	good.Round = 5
	if _, err := SaveStateFile(dir, good); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	torn := sampleState()
	torn.Round = 9
	if err := SaveState(&buf, torn); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, "global-r000009.ckpt"), half, 0o644); err != nil {
		t.Fatal(err)
	}
	st, ok, err := LoadLatest(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st.Round != 5 {
		t.Fatalf("LoadLatest picked round %d, want the valid round 5", st.Round)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	if _, ok, err := LoadLatest(t.TempDir()); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if _, ok, err := LoadLatest(filepath.Join(t.TempDir(), "missing")); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}
