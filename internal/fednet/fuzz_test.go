package fednet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzReadMsg throws arbitrary bytes at the frame reader. The committed
// corpus (testdata/fuzz/FuzzReadMsg) holds one valid frame per message
// type plus a truncation and a single-bit flip of each; the seeds added
// here cover every truncation point and bit position of one frame, and the
// header-only frames of a warm move.
//
// Properties: the reader never panics; it never consumes more than it was
// given; on any error it hands out neither a vector nor a type, and on a
// checksum mismatch no header either; a frame it accepts really carries a
// matching CRC, and writing its type, header and vector again reproduces
// it byte for byte (for headers in encoding/json's canonical form, which
// is all the writer produces — other accepted spellings must still decode
// to the same values).
func FuzzReadMsg(f *testing.F) {
	var frame bytes.Buffer
	if err := WriteMsg(&frame, MsgTrainReply, TrainReply{DeviceID: 1, Round: 2}, awkwardVector()[:3]); err != nil {
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
	// The two header-only frames of a warm move: the scores an edge sends a
	// device, and the registration that carries them instead of a model.
	drift := Drift{U: 0.25, DeltaNorm: 1.5}
	for _, m := range []struct {
		t      MsgType
		header any
	}{
		{MsgScores, Scores{DeviceID: 3, Round: 8, Drift: drift}},
		{MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: 3, DataSize: 30, PrevEdge: 1, Rehome: true, Utility: 0.5, LastTrained: 8, Drift: &drift}}}},
	} {
		var b bytes.Buffer
		if err := WriteMsg(&b, m.t, m.header, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr json.RawMessage
		typ, vec, n, err := ReadMsgCount(bytes.NewReader(data), &hdr)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			if typ != 0 || vec != nil {
				t.Fatalf("error %v came with type %d and %d values", err, typ, len(vec))
			}
			if errors.Is(err, ErrCorruptFrame) && hdr != nil {
				t.Fatalf("header %q decoded from a frame that failed its checksum", hdr)
			}
			return
		}
		got := data[:n]
		if n < 13 || binary.LittleEndian.Uint32(got[n-4:]) != crc32.ChecksumIEEE(got[:n-4]) {
			t.Fatalf("accepted a %d-byte frame whose checksum does not match", n)
		}
		header := any(hdr)
		if hdr == nil { // a zero-length header, which only a foreign writer sends
			return
		}
		var again bytes.Buffer
		if err := WriteMsg(&again, typ, header, vec); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if canonical, _ := json.Marshal(hdr); bytes.Equal(canonical, hdr) {
			if !bytes.Equal(again.Bytes(), got) {
				t.Fatalf("accepted frame does not re-encode to itself\n got %x\nfrom %x", again.Bytes(), got)
			}
			return
		}
		var hdr2 json.RawMessage
		typ2, vec2, _, err := ReadMsgCount(&again, &hdr2)
		if err != nil || typ2 != typ || !sameBits(vec2, vec) {
			t.Fatalf("re-encoded frame decodes differently: type %d→%d, err %v", typ, typ2, err)
		}
	})
}
