package checkpoint

import (
	"math"
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
