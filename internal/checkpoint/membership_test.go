package checkpoint

// The membership section of a state record (v4): the membership epoch
// and the device→edge assignment after the edge weights.

import (
	"bytes"
	"testing"
)

func membershipState() State {
	st := sampleState()
	st.Epoch = 9
	st.Assignment = map[int]int{0: 2, 3: 0, 11: 1}
	return st
}

func TestStateV4RoundTrip(t *testing.T) {
	want := membershipState()
	var buf bytes.Buffer
	if err := SaveState(&buf, want); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != 4 {
		t.Fatalf("membership state wrote wire version %d, want 4", got)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, got, want)
	if got.Epoch != want.Epoch {
		t.Fatalf("epoch %d, want %d", got.Epoch, want.Epoch)
	}
	if len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("assignment %v, want %v", got.Assignment, want.Assignment)
	}
	for d, e := range want.Assignment {
		if got.Assignment[d] != e {
			t.Fatalf("device %d assigned to %d, want %d", d, got.Assignment[d], e)
		}
	}
}

// TestStateV4TornAndCorrupt extends the torn-write and bit-flip
// rejection guarantees to the membership section of the record.
func TestStateV4TornAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, membershipState()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := LoadState(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", n, len(full))
		}
	}
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if _, err := LoadState(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d loaded successfully", i)
		}
	}
}

// TestStateV4SaveDeterministic pins the sorted-device-id encoding of the
// assignment table: two saves are byte-identical regardless of map
// iteration order.
func TestStateV4SaveDeterministic(t *testing.T) {
	st := membershipState()
	var a, b bytes.Buffer
	if err := SaveState(&a, st); err != nil {
		t.Fatal(err)
	}
	if err := SaveState(&b, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same membership state differ byte-wise")
	}
}
