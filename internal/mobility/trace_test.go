package mobility

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestReadTraceHeaderSizesNothing: a header claiming 2³¹ steps over a
// truncated body is refused without allocating for the claim (sizing the
// row slice from it asked for 48 GiB here, and the 33-byte header
// "middle-trace v1 1 1 999999999999" ended the process out of memory).
func TestReadTraceHeaderSizesNothing(t *testing.T) {
	in := "middle-trace v1 2 2 2147483648\n0 1\n1 0\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated at step 2") {
		t.Fatalf("ReadTrace = %v, want the truncation at step 2", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("ReadTrace allocated %d bytes for a two-row body", grown)
	}
}

// FuzzReadTrace: ReadTrace never panics and never sizes anything from
// the header, and a trace it accepts has every row as wide as the device
// count with every edge in range, and survives Write → ReadTrace exactly.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := Record(NewMarkov(3, 4, 0.5, 1), 5).Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add("middle-trace v1 1 1 999999999999\n")
	f.Add("middle-trace v1 2 2 2147483648\n0 1\n")
	f.Add(valid[:len(valid)/2])
	f.Add("middle-trace v1 2 2 2\n0 1\n0 2\n")
	f.Add("middle-trace v1 2 2 1\n0 -1\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for step, row := range tr.Memberships {
			if len(row) != tr.NumDevices() {
				t.Fatalf("step %d has %d entries, step 0 has %d", step, len(row), tr.NumDevices())
			}
			for m, e := range row {
				if e < 0 || e >= tr.Edges {
					t.Fatalf("step %d device %d: edge %d outside [0,%d)", step, m, e, tr.Edges)
				}
			}
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}
