package fednet

// Codec tests for what buffer pooling can break: the frame bytes (golden
// frames captured from the pre-pooling writer), bounded memory for frames
// that lie about their length, and ownership — a decoded vector must stay
// its reader's alone after the frame buffers it passed through are reused.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// frameCase is one representative frame of a message type.
type frameCase struct {
	name   string
	t      MsgType
	header any
}

// frameCases has one entry per MsgType in use, in protocol order.
var frameCases = []frameCase{
	{"RegisterEdge", MsgRegisterEdge, RegisterEdge{EdgeID: 2}},
	{"RegisterMux", MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{
		{DeviceID: 7, DataSize: 100, PrevEdge: -1},
		{DeviceID: 9, DataSize: 80, PrevEdge: 1, Rehome: true, Utility: 3.25, LastTrained: 11},
	}}},
	{"RoundStart", MsgRoundStart, RoundStart{Round: 17, Sync: true, Span: "c17", Epoch: 3}},
	{"RoundDone", MsgRoundDone, RoundDone{EdgeID: 1, Round: 17, Weight: 412.5, Trained: 4, Epoch: 3, Devices: []int{2, 5, 8}}},
	{"GlobalModel", MsgGlobalModel, struct{}{}},
	{"TrainRequest", MsgTrainRequest, TrainRequest{Round: 17, DeviceID: 5, Moved: true, ResetLocal: true,
		Span: "c17.e1.d5"}},
	{"TrainReply", MsgTrainReply, TrainReply{DeviceID: 5, Round: 17, DataSize: 100, Utility: 1.5}},
	{"Shutdown", MsgShutdown, struct{}{}},
	{"RegisterAck", MsgRegisterAck, RegisterAck{EdgeID: 1, Round: 17, LastSync: 15}},
	{"DeviceLeave", MsgDeviceLeave, DeviceLeave{DeviceID: 5}},
	{"Lease", MsgLease, Lease{EdgeID: 1, Epoch: 3, Seq: 99}},
	{"EdgeWelcome", MsgEdgeWelcome, EdgeWelcome{Epoch: 3, Round: 16, LastSync: 15, LeaseMillis: 500, Rejoin: true}},
	{"Scores", MsgScores, Scores{DeviceID: 5, Round: 17, Drift: Drift{U: 0.125, DeltaNorm: 2.5}}},
	{"Boundary", MsgBoundary, Boundary{Round: 17}},
}

// awkwardVector holds the float64 bit patterns a lossy codec would mangle:
// a NaN carrying payload bits, a signalling-range NaN, −0, ±Inf, the
// smallest denormal and a large denormal, next to ordinary values.
func awkwardVector() []float64 {
	bits := []uint64{
		0x7ff8dead0000beef, 0xfff0000000000001, 0x8000000000000000,
		0x7ff0000000000000, 0xfff0000000000000, 0x0000000000000001,
		0x000fffffffffffff, math.Float64bits(1.5), math.Float64bits(-math.Pi), 0,
	}
	vec := make([]float64, len(bits))
	for i, b := range bits {
		vec[i] = math.Float64frombits(b)
	}
	return vec
}

// goldenFrames reads testdata/golden_frames.txt: "<name> <hex frame>" per
// line, written from frameCases and awkwardVector by the writer that
// replaced the JSON headers with fixed layouts (the child of commit
// 20e7755). Against that commit's lines only the header lengths, the
// header bytes and the CRCs differ: every type byte, vector length and
// payload byte is the same.
func goldenFrames(t testing.TB) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("golden line %q", sc.Text())
		}
		raw, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		golden[name] = raw
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestFrameBytesGolden pins the wire format: for every message type the
// writer produces the golden bytes, and reading them back yields the same
// header and the same float bit patterns. A peer built from another
// commit with the same golden file therefore interoperates by construction.
func TestFrameBytesGolden(t *testing.T) {
	golden := goldenFrames(t)
	if len(golden) != len(frameCases) {
		t.Fatalf("%d golden frames for %d message types", len(golden), len(frameCases))
	}
	vec := awkwardVector()
	for _, fc := range frameCases {
		want := golden[fc.name]
		// Twice: the second frame is assembled in a recycled buffer.
		for pass := 0; pass < 2; pass++ {
			var buf bytes.Buffer
			n, err := WriteMsgCount(&buf, fc.t, fc.header, vec)
			if err != nil || n != len(want) {
				t.Fatalf("%s: wrote %d bytes (%v), want %d", fc.name, n, err, len(want))
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s pass %d: frame bytes differ from golden\n got %x\nwant %x", fc.name, pass, buf.Bytes(), want)
			}
		}
		out := reflect.New(reflect.TypeOf(fc.header))
		typ, got, n, err := ReadMsgCount(bytes.NewReader(want), out.Interface())
		if err != nil || typ != fc.t || n != len(want) {
			t.Fatalf("%s: read type %d, %d bytes, err %v", fc.name, typ, n, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), fc.header) {
			t.Fatalf("%s: header %+v, want %+v", fc.name, out.Elem().Interface(), fc.header)
		}
		if !sameBits(got, vec) {
			t.Fatalf("%s: vector bits changed in transit: %x", fc.name, got)
		}
	}
}

// TestReadMsgMemoryFollowsBytesReceived: a frame header may claim up to
// maxFrame bytes, but the reader must not believe it before the bytes
// arrive — nine bytes from any peer used to cost a 256 MB allocation.
func TestReadMsgMemoryFollowsBytesReceived(t *testing.T) {
	claimHeader := binary.LittleEndian.AppendUint32([]byte{byte(MsgRegisterMux)}, maxFrame)
	claimVector := binary.LittleEndian.AppendUint32(append([]byte{byte(MsgTrainReply), 32, 0, 0, 0}, make([]byte, 32)...), maxFrame/8)
	for name, raw := range map[string][]byte{"header": claimHeader, "vector": claimVector} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, vec, n, err := ReadMsgCount(bytes.NewReader(raw), nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) || vec != nil || n != len(raw) {
			t.Fatalf("%s: vec %v, n %d, err %v", name, vec, n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: a %d-byte frame claiming 2^28 bytes made the reader allocate %d bytes", name, len(raw), grew)
		}
		// The same on a staging buffer that is certainly cold.
		fb, read := new(frameBuf), 0
		if err := fb.fill(bytes.NewReader(raw[5:]), raw[:5], &read); !errors.Is(err, io.EOF) || cap(fb.b) > 2*readChunk {
			t.Fatalf("%s: cold staging buffer grew to %d bytes for %d received, err %v", name, cap(fb.b), len(raw), err)
		}
	}
}

// TestFrameStagingGrowsWithArrivingBytes covers the growth itself: a frame
// of several growth steps, arriving seven bytes at a time in a cold
// buffer, is staged intact in at most twice its size.
func TestFrameStagingGrowsWithArrivingBytes(t *testing.T) {
	vec := make([]float64, 3*readChunk/8+5)
	for i := range vec {
		vec[i] = float64(i) * 0.25
	}
	var frame bytes.Buffer
	if err := WriteMsg(&frame, MsgGlobalModel, struct{}{}, vec); err != nil {
		t.Fatal(err)
	}
	fb, n := new(frameBuf), 5
	err := fb.fill(&dribble{p: frame.Bytes()[5:]}, frame.Bytes()[:5], &n)
	if err != nil || n != frame.Len() || !bytes.Equal(fb.b, frame.Bytes()) {
		t.Fatalf("staged %d of %d bytes, err %v", n, frame.Len(), err)
	}
	if cap(fb.b) > 2*frame.Len() {
		t.Fatalf("staging buffer of %d bytes for a %d-byte frame", cap(fb.b), frame.Len())
	}
}

// dribble hands out p at most seven bytes per Read.
type dribble struct{ p []byte }

func (d *dribble) Read(b []byte) (int, error) {
	if len(d.p) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), 7)], d.p)
	d.p = d.p[n:]
	return n, nil
}

// TestCodecBuffersNotSharedAcrossConnections is the ownership stress: 8
// writers and 8 readers exchange frames of distinct lengths and fill
// patterns over net.Pipe. Each reader checks a frame only after it has
// read the next one, so a staging buffer or vector recycled while still
// referenced shows up as contamination (and as a race under -race).
func TestCodecBuffersNotSharedAcrossConnections(t *testing.T) {
	const pairs, frames = 8, 260
	fill := func(pair, seq, i int) float64 { return float64(pair*1_000_000 + seq*1_000 + i%977) }
	length := func(pair, seq int) int { return 1 + (pair*131+seq*17)%3000 }
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wr, rd := net.Pipe()
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			defer wr.Close()
			for s := 0; s < frames; s++ {
				vec := make([]float64, length(p, s))
				for i := range vec {
					vec[i] = fill(p, s, i)
				}
				if err := WriteMsg(wr, MsgTrainReply, TrainReply{DeviceID: p, Round: s}, vec); err != nil {
					t.Errorf("pair %d frame %d: %v", p, s, err)
					return
				}
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			defer rd.Close()
			check := func(s int, h TrainReply, vec []float64) error {
				if h.DeviceID != p || h.Round != s || len(vec) != length(p, s) {
					return fmt.Errorf("pair %d frame %d: header %+v, %d values", p, s, h, len(vec))
				}
				for i, v := range vec {
					if v != fill(p, s, i) {
						return fmt.Errorf("pair %d frame %d: value %d is %v, want %v", p, s, i, v, fill(p, s, i))
					}
				}
				return nil
			}
			var prevH TrainReply
			var prevVec []float64
			for s := 0; s < frames; s++ {
				var h TrainReply
				_, vec, err := ReadMsg(rd, &h)
				if err != nil {
					t.Errorf("pair %d frame %d: %v", p, s, err)
					return
				}
				if s > 0 {
					if err := check(s-1, prevH, prevVec); err != nil {
						t.Error(err)
						return
					}
				}
				prevH, prevVec = h, vec
			}
			if err := check(frames-1, prevH, prevVec); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
}

// TestNativePayloadMatchesPortable: the one-copy payload body a
// little-endian host takes and the value-by-value body every other host
// takes (and the wire format is defined by) produce the same bytes from a
// vector and the same vector from bytes, bit for bit — NaN payloads, ±Inf,
// ±0 and subnormals included, at the lengths around which a copy and a
// loop could differ (none, one, an odd count, pages, a model).
func TestNativePayloadMatchesPortable(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: the portable body is the only one")
	}
	awkward := awkwardVector()
	for _, n := range []int{0, 1, 7, 4096, 51930} {
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i)*0.37 - 11
			if i%5 == 0 {
				vec[i] = awkward[i/5%len(awkward)]
			}
		}
		// One spare byte past the payload: neither body may touch it.
		native, portable := make([]byte, 8*n+1), make([]byte, 8*n+1)
		native[8*n], portable[8*n] = 0xa5, 0xa5
		putVec(native, vec)
		putVecPortable(portable, vec)
		if !bytes.Equal(native, portable) {
			t.Fatalf("%d values: native and portable payload bytes differ", n)
		}
		if n > 0 && binary.LittleEndian.Uint64(portable[8*(n-1):]) != math.Float64bits(vec[n-1]) {
			t.Fatalf("%d values: the portable body is not little-endian IEEE 754", n)
		}
		fromNative, fromPortable := make([]float64, n), make([]float64, n)
		getVec(fromNative, portable)
		getVecPortable(fromPortable, portable)
		if !sameBits(fromNative, vec) || !sameBits(fromPortable, vec) {
			t.Fatalf("%d values: decoded vectors differ from the one encoded (native ok %v, portable ok %v)",
				n, sameBits(fromNative, vec), sameBits(fromPortable, vec))
		}
	}
}
