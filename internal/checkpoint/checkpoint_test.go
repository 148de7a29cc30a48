package checkpoint

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"middle/internal/tensor"
)

// saveModel is what middle.SaveModel does, and loadModel reads it back:
// a named model vector is a State of just those two fields.
func saveModel(w io.Writer, name string, vec []float64) error {
	return SaveState(w, State{Name: name, Model: vec})
}

func loadModel(r io.Reader) (string, []float64, error) {
	st, err := LoadState(r)
	return st.Name, st.Model, err
}

func TestRoundTrip(t *testing.T) {
	vec := []float64{1.5, -2.25, 0, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	if err := saveModel(&buf, "mnist-cnn", vec); err != nil {
		t.Fatal(err)
	}
	name, got, err := loadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mnist-cnn" {
		t.Fatalf("name %q", name)
	}
	if len(got) != len(vec) {
		t.Fatalf("length %d", len(got))
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], vec[i])
		}
	}
}

func TestEmptyVectorAndName(t *testing.T) {
	var buf bytes.Buffer
	if err := saveModel(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	name, vec, err := loadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "" || len(vec) != 0 {
		t.Fatalf("got %q / %d values", name, len(vec))
	}
}

func TestNaNRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := saveModel(&buf, "x", []float64{math.NaN()}); err != nil {
		t.Fatal(err)
	}
	_, vec, err := loadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(vec[0]) {
		t.Fatalf("NaN not preserved: %v", vec[0])
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := saveModel(&buf, "model", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit of a field, past the header.
	raw[len(raw)-10] ^= 0x40
	if _, _, err := loadModel(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := saveModel(&buf, "model", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{3, 6, 9, len(raw) - 2} {
		if _, _, err := loadModel(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, _, err := loadModel(strings.NewReader("NOTAMODEL")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestNameTooLongRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := saveModel(&buf, strings.Repeat("x", maxName+1), nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}

// Property: arbitrary vectors round-trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := tensor.NewRNG(seed)
		vec := make([]float64, int(n8)%200)
		for i := range vec {
			vec[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		var buf bytes.Buffer
		if err := saveModel(&buf, "m", vec); err != nil {
			return false
		}
		_, got, err := loadModel(&buf)
		if err != nil || len(got) != len(vec) {
			return false
		}
		for i := range vec {
			if got[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
