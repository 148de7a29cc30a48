package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"middle/internal/obs"
)

// TestReadDumpKeepsNonFinite round-trips a dump whose last point is
// non-finite: WriteDump writes it as null and ReadDump must hand back
// NaN, not the 0 a plain float decoder makes of null.
func TestReadDumpKeepsNonFinite(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("epoch")
	s, err := New(Config{Registry: r, Interval: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Set(3)
	s.scrapeAt(time.UnixMilli(1_000_000))
	g.Set(math.Inf(1))
	s.scrapeAt(time.UnixMilli(1_001_000))

	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"epoch","points":[[1000000,3],[1001000,null]]`)) {
		t.Fatalf("dump does not write the non-finite point as null: %s", buf.Bytes())
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range got {
		if sd.Name != "epoch" {
			continue
		}
		if len(sd.Points) != 2 || sd.Points[0] != (Point{T: 1_000_000, V: 3}) ||
			sd.Points[1].T != 1_001_000 || !math.IsNaN(sd.Points[1].V) {
			t.Fatalf("epoch read back as %v, want [{1000000 3} {1001000 NaN}]", sd.Points)
		}
		return
	}
	t.Fatalf("epoch missing from the dump read back: %v", got)
}

func TestReadDumpRejectsOtherDocuments(t *testing.T) {
	for _, doc := range []string{``, `{"series":[]}`, `{"tsdb":1,"series":[{"name":"x","points":[[null,1]]}]}`, `{"tsdb":1`} {
		if _, err := ReadDump(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("ReadDump(%q) accepted it", doc)
		}
	}
}

// FuzzReadDump throws arbitrary bytes at the dump decoder. The committed
// corpus (testdata/fuzz/FuzzReadDump) holds a dump WriteDump wrote, one
// point null, and a truncated copy of it.
//
// Properties: the decoder never panics, and what it accepts survives a
// second trip through the writer's encoding unchanged (NaN for NaN).
func FuzzReadDump(f *testing.F) {
	f.Add([]byte(`{"tsdb":1,"interval_ms":1000,"series":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(dumpDoc{TSDB: 1, Series: toJSONSeries(first)}); err != nil {
			t.Fatalf("re-encoding an accepted dump: %v", err)
		}
		second, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("re-reading %s: %v", buf.Bytes(), err)
		}
		if len(second) != len(first) {
			t.Fatalf("%d series became %d", len(first), len(second))
		}
		for i := range first {
			a, b := first[i], second[i]
			if a.Name != b.Name || len(a.Points) != len(b.Points) {
				t.Fatalf("series %d: %s/%d points became %s/%d", i, a.Name, len(a.Points), b.Name, len(b.Points))
			}
			for j, p := range a.Points {
				q := b.Points[j]
				if p.T != q.T || (p.V != q.V && !(math.IsNaN(p.V) && math.IsNaN(q.V))) {
					t.Fatalf("series %s point %d: %v became %v", a.Name, j, p, q)
				}
			}
		}
	})
}
