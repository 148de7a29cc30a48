package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sampleHandover() Handover {
	return Handover{
		Device: 7, SrcEdge: 1, DestEdge: 2, Generation: 3,
		Round: 12, LastSync: 10, LastTrained: 11, Steps: 42, DataSize: 30,
		StatUtil:   1.5,
		Model:      []float64{0.25, -1, math.Pi, 0},
		MomentLens: []int{3, 1},
		Moments:    []float64{0.1, -0.2, 0.3, 9},
	}
}

func handoversEqual(a, b Handover) bool {
	if a.Device != b.Device || a.SrcEdge != b.SrcEdge || a.DestEdge != b.DestEdge ||
		a.Generation != b.Generation || a.Round != b.Round || a.LastSync != b.LastSync ||
		a.LastTrained != b.LastTrained || a.Steps != b.Steps || a.DataSize != b.DataSize {
		return false
	}
	if math.Float64bits(a.StatUtil) != math.Float64bits(b.StatUtil) {
		return false
	}
	return sameBits(a.Model, b.Model) && sameBits(a.Moments, b.Moments) && slices.Equal(a.MomentLens, b.MomentLens)
}

func TestHandoverRoundTrip(t *testing.T) {
	in := sampleHandover()
	raw, err := EncodeHandoverBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHandoverBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !handoversEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestHandoverNoMomentsRoundTrip(t *testing.T) {
	in := sampleHandover()
	in.MomentLens, in.Moments = nil, nil
	raw, err := EncodeHandoverBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHandoverBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !handoversEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestHandoverMismatchedMomentsRejected(t *testing.T) {
	in := sampleHandover()
	in.MomentLens = []int{2} // sum 2 ≠ 4 values
	if _, err := EncodeHandoverBytes(in); err == nil {
		t.Fatal("mismatched moment lengths encoded")
	}
	in.MomentLens = []int{-1, 5}
	if _, err := EncodeHandoverBytes(in); err == nil {
		t.Fatal("negative moment length encoded")
	}
}

// TestHandoverCorruptionDetected flips every single byte in turn: the
// inner CRC (or a structural guard) must reject each mutation — this is
// the checksum the Byzantine-rewrite fault cannot recompute.
func TestHandoverCorruptionDetected(t *testing.T) {
	raw, err := EncodeHandoverBytes(sampleHandover())
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		if _, err := DecodeHandoverBytes(mut); err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", i)
		}
	}
}

func TestHandoverTruncationDetected(t *testing.T) {
	raw, err := EncodeHandoverBytes(sampleHandover())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 4, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeHandoverBytes(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

// journal encodes h and journals the record under dir, as MigrateOut does.
func journal(t *testing.T, dir string, h Handover) string {
	t.Helper()
	rec, err := EncodeHandoverBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	path, err := SaveHandoverFile(dir, h.Device, h.Generation, rec)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHandoverJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	in := sampleHandover()
	path := journal(t, dir, in)
	if filepath.Ext(path) != ".hov" {
		t.Fatalf("journal path %q does not use the .hov extension", path)
	}
	hs, err := LoadHandovers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || !handoversEqual(in, hs[0]) {
		t.Fatalf("LoadHandovers = %+v, want the saved record", hs)
	}
	// Journals must be invisible to the .ckpt checkpoint scan.
	if _, ok, err := LoadLatestNamed(dir, "edge1"); err != nil || ok {
		t.Fatalf("checkpoint scan saw handover journals (ok=%v, err=%v)", ok, err)
	}
	if err := RemoveHandoverFile(dir, in.Device, in.Generation); err != nil {
		t.Fatal(err)
	}
	// Removing again is not an error: the journal may already be resolved.
	if err := RemoveHandoverFile(dir, in.Device, in.Generation); err != nil {
		t.Fatal(err)
	}
	hs, err = LoadHandovers(dir)
	if err != nil || len(hs) != 0 {
		t.Fatalf("journal survived removal: %+v, %v", hs, err)
	}
}

func TestLoadHandoversSkipsTornAndMissingDir(t *testing.T) {
	dir := t.TempDir()
	good := sampleHandover()
	journal(t, dir, good)
	raw, err := EncodeHandoverBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "handover-d000099-g000001.hov")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	hs, err := LoadHandovers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || hs[0].Device != good.Device {
		t.Fatalf("torn journal not skipped: %+v", hs)
	}
	if hs, err := LoadHandovers(filepath.Join(dir, "missing")); err != nil || hs != nil {
		t.Fatalf("missing dir: %+v, %v", hs, err)
	}
}
