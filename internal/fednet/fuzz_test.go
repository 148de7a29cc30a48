package fednet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzReadMsg throws arbitrary bytes at the frame reader. The committed
// corpus (testdata/fuzz/FuzzReadMsg) holds one valid frame per message
// type plus a truncation and a single-bit flip of each; the seeds added
// here cover every truncation point and bit position of one frame — a
// warm registration, whose header has every kind of field: a list, ints,
// floats, flags and the optional Drift — the header-only frames of a warm
// move, and a fleet's round boundary.
//
// Properties: the reader never panics; it never consumes more than it was
// given; on any error it hands out neither a vector nor a type, and on a
// checksum mismatch it decodes no header either; a frame it accepts really
// carries a matching CRC, and writing its type, header and vector again
// reproduces it byte for byte: a fixed layout has one spelling per header,
// and the reader accepts no other.
func FuzzReadMsg(f *testing.F) {
	drift := Drift{U: 0.25, DeltaNorm: 1.5}
	warm := RegisterMux{Devices: []RegisterDevice{{DeviceID: 3, DataSize: 30, PrevEdge: 1, Rehome: true, Utility: 0.5, LastTrained: 8, Drift: &drift}}}
	var frame bytes.Buffer
	if err := WriteMsg(&frame, MsgRegisterMux, warm, awkwardVector()[:3]); err != nil {
		f.Fatal(err)
	}
	raw := frame.Bytes()
	for cut := 0; cut <= len(raw); cut++ {
		f.Add(append([]byte(nil), raw[:cut]...))
	}
	for bit := 0; bit < 8*len(raw); bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	// The two header-only frames of a warm move — the scores an edge sends
	// a device, and the registration that carries them instead of a model —
	// and the boundary a cloud and a fleet exchange after round 8.
	for _, m := range []struct {
		t      MsgType
		header any
	}{
		{MsgScores, Scores{DeviceID: 3, Round: 8, Drift: drift}},
		{MsgRegisterMux, warm},
		{MsgBoundary, Boundary{Round: 8}},
	} {
		var b bytes.Buffer
		if err := WriteMsg(&b, m.t, m.header, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hs frameHeaders
		typ, vec, n, err := readFrame(bytes.NewReader(data), &hs, nil)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			if typ != 0 || vec != nil {
				t.Fatalf("error %v came with type %d and %d values", err, typ, len(vec))
			}
			if errors.Is(err, ErrCorruptFrame) && !reflect.DeepEqual(hs, frameHeaders{}) {
				t.Fatalf("header %+v decoded from a frame that failed its checksum", hs)
			}
			return
		}
		got := data[:n]
		if n < 13 || binary.LittleEndian.Uint32(got[n-4:]) != crc32.ChecksumIEEE(got[:n-4]) {
			t.Fatalf("accepted a %d-byte frame whose checksum does not match", n)
		}
		var header any // a type without a header writes none
		if h := hs.of(typ); h != nil {
			header = reflect.ValueOf(h).Elem().Interface()
		}
		var again bytes.Buffer
		if err := WriteMsg(&again, typ, header, vec); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if !bytes.Equal(again.Bytes(), got) {
			t.Fatalf("accepted frame does not re-encode to itself\n got %x\nfrom %x", again.Bytes(), got)
		}
	})
}
