package fednet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// headerCases extends frameCases with the variable and optional parts of
// the layouts: a traced span, an empty and a long device list, a warm
// registration with and without Drift, negative ids and −0.
var headerCases = append(append([]frameCase(nil), frameCases...), []frameCase{
	{"RoundStart traced", MsgRoundStart, RoundStart{Round: 3, Span: "c3 ünïcode", Epoch: 1}},
	{"RoundStart untraced", MsgRoundStart, RoundStart{Round: 4}},
	{"RoundDone sync", MsgRoundDone, RoundDone{EdgeID: 0, Round: 20, Weight: -0.0, Trained: 0, Epoch: 9,
		Devices: []int{0, 1, 1 << 40, -7}}},
	{"RoundDone", MsgRoundDone, RoundDone{EdgeID: 2, Round: 21, Weight: 3}},
	{"TrainRequest traced", MsgTrainRequest, TrainRequest{Round: 5, DeviceID: -1, Span: strings.Repeat("s", 300)}},
	{"RegisterMux warm", MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: 3, DataSize: 30, PrevEdge: 1,
		Rehome: true, Utility: 0.5, LastTrained: 8, Drift: &Drift{U: 0.25, DeltaNorm: 1.5}}}}},
	{"RegisterMux cold", MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{DeviceID: 4, DataSize: 1, PrevEdge: -1}}}},
	{"EdgeWelcome", MsgEdgeWelcome, EdgeWelcome{Epoch: 1, LeaseMillis: 500}},
	{"Boundary opening", MsgBoundary, Boundary{}},
}...)

// headerBytes encodes fc's header alone.
func headerBytes(t *testing.T, fc frameCase) []byte {
	t.Helper()
	var e enc
	e.encodeHeader(fc.t, fc.header)
	if e.err != nil {
		t.Fatalf("%s: %v", fc.name, e.err)
	}
	return e.b
}

// frameWith builds a frame of type typ around raw header bytes, with no
// vector and a CRC that matches, so a reader gets as far as the header.
func frameWith(typ MsgType, hdr []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{byte(typ)}, uint32(len(hdr)))
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestHeaderRoundTrip: for every message type, decoding what the encoder
// wrote gives back the header it was given, both into a fresh value and
// into one that held another header of the type, and through a whole
// frame; a header of one type is refused under another type's byte, and
// a frame whose type byte the protocol does not have is rejected.
func TestHeaderRoundTrip(t *testing.T) {
	seen := map[MsgType]bool{}
	var reused frameHeaders
	for _, fc := range headerCases {
		seen[fc.t] = true
		b := headerBytes(t, fc)
		if headerless(fc.t) {
			if len(b) != 0 {
				t.Errorf("%s: %d header bytes for a type without a header", fc.name, len(b))
			}
			continue
		}
		var fresh frameHeaders
		h := fresh.of(fc.t)
		if err := h.get(b); err != nil || !reflect.DeepEqual(reflect.ValueOf(h).Elem().Interface(), fc.header) {
			t.Errorf("%s: decoded %+v (err %v), want %+v", fc.name, reflect.ValueOf(h).Elem().Interface(), err, fc.header)
		}
		// Into a value that held another header of the type: the same
		// header, up to the storage an empty list keeps.
		h = reused.of(fc.t)
		if err := h.get(b); err != nil {
			t.Fatalf("%s (reused): %v", fc.name, err)
		}
		if again := headerBytes(t, frameCase{fc.name, fc.t, reflect.ValueOf(h).Elem().Interface()}); !bytes.Equal(again, b) {
			t.Errorf("%s (reused): decoded %+v, which encodes as %x, not %x", fc.name, reflect.ValueOf(h).Elem().Interface(), again, b)
		}
		var frame bytes.Buffer
		if err := WriteMsg(&frame, fc.t, fc.header, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(fc.header))
		if typ, vec, err := ReadMsg(&frame, out.Interface()); err != nil || typ != fc.t || len(vec) != 2 ||
			!reflect.DeepEqual(out.Elem().Interface(), fc.header) {
			t.Errorf("%s: frame read back as type %d, header %+v, %d values, err %v", fc.name, typ, out.Elem().Interface(), len(vec), err)
		}
		if err := WriteMsg(&frame, MsgShutdown, fc.header, nil); err == nil {
			t.Errorf("%s: written under MsgShutdown", fc.name)
		}
	}
	for typ := MsgType(0); typ < 255; typ++ {
		if known := headerless(typ) || (&frameHeaders{}).of(typ) != nil; known != seen[typ] {
			t.Errorf("message type %d: in the protocol %v, covered %v", typ, known, seen[typ])
		}
		if _, _, err := ReadMsg(bytes.NewReader(frameWith(typ, nil)), nil); (err == nil) != headerless(typ) {
			t.Errorf("message type %d: a frame without a header read with error %v", typ, err)
		}
	}
}

// TestHeaderRefusesNonFinite: a NaN or an infinity in any float field is
// refused by the encoder, as encoding/json refused it, and rejected by the
// decoder from a frame whose CRC is intact, so the set of headers a peer
// accepts is the set it can send.
func TestHeaderRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, fc := range []frameCase{
			{"TrainReply.Utility", MsgTrainReply, TrainReply{DeviceID: 1, Utility: bad}},
			{"RoundDone.Weight", MsgRoundDone, RoundDone{Weight: bad, Devices: []int{1}}},
			{"RegisterDevice.Utility", MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{Utility: bad}}}},
			{"RegisterDevice.Drift.U", MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{{Drift: &Drift{U: bad}}}}},
			{"Scores.DeltaNorm", MsgScores, Scores{Drift: Drift{DeltaNorm: bad}}},
		} {
			if err := WriteMsg(&bytes.Buffer{}, fc.t, fc.header, nil); err == nil {
				t.Errorf("%s = %v: encoded", fc.name, bad)
			}
			// The same header with a finite marker, its bits then replaced.
			const marker = 1234.5
			hdr := headerBytes(t, withFloat(fc, marker))
			at := bytes.Index(hdr, binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker)))
			if at < 0 {
				t.Fatalf("%s: marker not found", fc.name)
			}
			binary.LittleEndian.PutUint64(hdr[at:], math.Float64bits(bad))
			var hs frameHeaders
			if _, _, err := ReadMsg(bytes.NewReader(frameWith(fc.t, hdr)), &hs); err == nil {
				t.Errorf("%s = %v: decoded", fc.name, bad)
			}
			if _, _, err := ReadMsg(bytes.NewReader(frameWith(fc.t, hdr)), nil); err == nil {
				t.Errorf("%s = %v: accepted by a reader that asked for no header", fc.name, bad)
			}
		}
	}
}

// withFloat is fc with its one non-finite float set to v.
func withFloat(fc frameCase, v float64) frameCase {
	switch h := fc.header.(type) {
	case TrainReply:
		h.Utility = v
		fc.header = h
	case RoundDone:
		h.Weight = v
		fc.header = h
	case RegisterMux:
		rd := h.Devices[0]
		if rd.Drift != nil {
			rd.Drift = &Drift{U: v}
		} else {
			rd.Utility = v
		}
		fc.header = RegisterMux{Devices: []RegisterDevice{rd}}
	case Scores:
		h.DeltaNorm = v
		fc.header = h
	}
	return fc
}

// TestHeaderClaimsBoundedByBytesReceived: a header may claim up to 2^32−1
// list entries or span bytes, but the decoder believes a count only when
// the header bytes received can hold it, so a few dozen bytes from any
// peer never make it allocate what they claim (in the spirit of
// checkpoint.TestDecodersAllocateFromBytesReceived). The frames are
// intact, so the claim reaches the decoder.
func TestHeaderClaimsBoundedByBytesReceived(t *testing.T) {
	const claim = math.MaxUint32
	i64 := func(b []byte, n int) []byte { return append(b, make([]byte, 8*n)...) }
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	frames := map[string][]byte{
		"RegisterMux devices":  frameWith(MsgRegisterMux, i64(u32(nil, claim), 4)),
		"RoundDone devices":    frameWith(MsgRoundDone, i64(u32(i64(nil, 5), claim), 2)),
		"RoundStart span":      frameWith(MsgRoundStart, append(u32(append(i64(nil, 1), 0), claim), "c1"...)),
		"TrainRequest span":    frameWith(MsgTrainRequest, append(u32(append(i64(nil, 2), 0, 0), claim), 'x', 0)),
		"RegisterMux one more": frameWith(MsgRegisterMux, append(u32(nil, 2), make([]byte, 2*registerDeviceBytes-1)...)),
	}
	for name, raw := range frames {
		for which, out := range map[string]any{"frameHeaders": &frameHeaders{}, "nil": nil} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			typ, _, err := ReadMsg(bytes.NewReader(raw), out)
			runtime.ReadMemStats(&after)
			if err == nil || typ != 0 {
				t.Errorf("%s (%s): accepted as type %d", name, which, typ)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s (%s): a %d-byte frame made the reader allocate %d bytes", name, which, len(raw), grew)
			}
		}
	}
}
