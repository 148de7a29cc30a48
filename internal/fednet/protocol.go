// Package fednet is a networked deployment of the MIDDLE training loop:
// a cloud server, edge servers and device clients speaking a compact
// binary protocol over TCP. The simulation engine (internal/hfl) remains
// the tool for controlled experiments; fednet demonstrates the same
// Algorithm 1 round structure — cloud-coordinated rounds, in-edge device
// selection from cached device state, on-device Eq. 9 aggregation, T_c
// cloud synchronisation — as an actual distributed system, with devices
// that migrate between edge servers mid-training.
//
// Wire format (little-endian): every message is
//
//	type    byte
//	hdrLen  uint32, hdrLen header bytes (the type's fixed layout below)
//	vecLen  uint32, vecLen float64 values (the model payload, may be 0)
//	crc     uint32 IEEE over everything above
//
// A header is its struct's fields in declaration order, each in a fixed
// form: int as int64 (i64), float64 as its IEEE bits (f64, finite only:
// the writer refuses NaN and ±Inf and the reader rejects them), bool as
// one byte 0 or 1 (u8), string as a uint32 length and its bytes (str), a
// list as a uint32 count and its entries (a count the header bytes left
// cannot hold is rejected before anything is allocated for it):
//
//	type  name          header fields
//	1     RegisterEdge  EdgeID i64
//	2     RegisterMux   count u32, per device: DeviceID i64, DataSize i64,
//	                    PrevEdge i64, Rehome u8, Utility f64,
//	                    LastTrained i64, has-Drift u8[, U f64, DeltaNorm f64]
//	3     RoundStart    Round i64, Sync u8, Span str, Epoch i64
//	4     RoundDone     EdgeID i64, Round i64, Weight f64, Trained i64,
//	                    Epoch i64, count u32, Devices i64 × count
//	5     GlobalModel   none (hdrLen 0)
//	6     TrainRequest  Round i64, DeviceID i64, Moved u8, ResetLocal u8,
//	                    Span str
//	7     TrainReply    DeviceID i64, Round i64, DataSize i64, Utility f64
//	8     Shutdown      none (hdrLen 0)
//	9     RegisterAck   EdgeID i64, Round i64, LastSync i64
//	10    DeviceLeave   DeviceID i64
//	14    Lease         EdgeID i64, Epoch i64, Seq i64
//	15    EdgeWelcome   Epoch i64, Round i64, LastSync i64, LeaseMillis i64,
//	                    Rejoin u8
//	16    Scores        DeviceID i64, Round i64, U f64, DeltaNorm f64
//	17    Boundary      Round i64
//
// A header must fill its hdrLen exactly, and a frame whose type is not in
// the table is rejected. Model vectors travel as raw float64s. The CRC
// trailer lets a receiver detect payload corruption (a flipped bit in a
// model vector would otherwise be silently aggregated); a mismatch is
// reported as ErrCorruptFrame and the stream is considered poisoned — the
// peer must reconnect and retry rather than resynchronise mid-stream.
// Nothing of a frame, header included, is decoded before its CRC has been
// checked.
//
// Frames are assembled, and arriving ones staged, in pooled buffers, so
// nothing passed to WriteMsg is retained and ReadMsg returns a vector the
// caller owns. Inside the package a reader may instead supply the storage
// its vectors are decoded into, and a reading loop decodes every header
// into one frameHeaders it keeps; DESIGN.md ("Who owns a vector") lists
// who holds which buffer until when.
package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"unsafe"
)

// ErrCorruptFrame marks a frame whose CRC trailer did not match its
// content. The bytes already consumed cannot be trusted to align with
// frame boundaries, so callers must treat the connection as dead.
var ErrCorruptFrame = errors.New("fednet: corrupt frame")

// MsgType identifies a protocol message.
type MsgType byte

// Protocol messages.
const (
	// MsgRegisterEdge: edge → cloud. Header: RegisterEdge.
	MsgRegisterEdge MsgType = iota + 1
	// MsgRegisterMux: device client → edge. Header: RegisterMux. Announces
	// one or more devices on a connection — as its first frame, and again
	// whenever another device of the same client arrives at the edge. The
	// edge answers each with one MsgRegisterAck and addresses train
	// requests by TrainRequest.DeviceID.
	MsgRegisterMux
	// MsgRoundStart: cloud → edge. Header: RoundStart.
	MsgRoundStart
	// MsgRoundDone: edge → cloud. Header: RoundDone. Carries the edge
	// model vector on cloud-sync rounds, empty otherwise.
	MsgRoundDone
	// MsgGlobalModel: cloud → edge after a sync round. Carries the new
	// global model vector.
	MsgGlobalModel
	// MsgTrainRequest: edge → device. Header: TrainRequest. Carries the
	// edge model vector.
	MsgTrainRequest
	// MsgTrainReply: device → edge. Header: TrainReply. Carries the
	// updated local model vector.
	MsgTrainReply
	// MsgShutdown: cloud → edge → device. Ends the session.
	MsgShutdown
	// MsgRegisterAck: edge → device client, confirming MsgRegisterMux.
	// Header: RegisterAck (the edge's round counter and sync era). No
	// payload: the device takes the edge model from its next TrainRequest.
	MsgRegisterAck
	// MsgDeviceLeave: device client ↔ edge. Header: DeviceLeave. Withdraws
	// one device from the connection (it moved to another edge). The edge
	// echoes the frame once the device is off its candidate set, so a move
	// returns only after its source has let the device go; a client whose
	// last device leaves closes the connection after that echo. A leave is
	// idempotent and its echo names the device, so a client resends a leave
	// whose echo is late.
	MsgDeviceLeave
	// Values 11–13 were the edge-to-edge handover's frames (a migrate
	// record, its ack and a move notice). They stay reserved, so every
	// other frame keeps its bytes.
	_
	_
	_
	// MsgLease: edge → cloud, on a dedicated heartbeat connection.
	// Header: Lease. Sent every lease interval while the edge considers
	// itself a member; a lease carrying a stale epoch identifies a fenced
	// incarnation and is rejected.
	MsgLease
	// MsgEdgeWelcome: cloud → edge, the answer to MsgRegisterEdge.
	// Header: EdgeWelcome. Carries the current global model vector.
	MsgEdgeWelcome
	// MsgScores: edge → device, after the edge accepted the device's train
	// reply and before it reports the round to the cloud. Header: Scores.
	// No payload: the device keeps the two numbers for a warm registration.
	MsgScores
	// MsgBoundary: fleet ↔ cloud. Header: Boundary. A fleet opens its
	// connection with one once its devices are attached; the cloud sends
	// one after every round, and starts the next only after the fleet
	// echoed it, its devices moved (Fleet).
	MsgBoundary
)

// maxFrame bounds a frame's payload sizes against corrupt peers.
const maxFrame = 1 << 28

// RegisterEdge announces an edge server to the cloud.
type RegisterEdge struct {
	EdgeID int
}

// RegisterDevice is one device's entry in a RegisterMux frame.
type RegisterDevice struct {
	DeviceID int
	DataSize int
	// PrevEdge is the edge the device last trained under (−1 if none);
	// the edge uses it to derive the paper's "moved" predicate.
	PrevEdge int
	// Rehome marks a warm registration: the device arrives carrying its
	// own state, because it moved here with live migration or its previous
	// edge died. Utility and LastTrained restore the edge's statistics, and
	// Drift the Eq. 12 numbers its last edge computed for the model it
	// trained in LastTrained. Without Drift the frame's vector payload is
	// that model, which the edge scores on receipt; a device sends it only
	// when it holds no scores of that round. A frame has one payload, so a
	// re-home entry must be the frame's only entry. A cold registration
	// leaves these fields zero and Drift nil.
	Rehome      bool
	Utility     float64
	LastTrained int
	Drift       *Drift
}

// Drift is what an edge keeps of a device's model for Eq. 12: U(w_c, Δw_m)
// and ‖Δw_m‖, with Δw_m = w_m − w_c (simil.SelectionUtilityNorm).
type Drift struct {
	U         float64
	DeltaNorm float64
}

// Scores tells a device the Drift its edge computed for the model the
// device trained in Round.
type Scores struct {
	DeviceID int
	Round    int
	Drift
}

// RegisterMux announces the devices of one client (see DeviceMux) on a
// connection: at least one entry, exactly one when it is a re-home.
type RegisterMux struct {
	Devices []RegisterDevice
}

// DeviceLeave withdraws one device from a shared connection: it moved
// to another edge and must no longer be selected here. The connection
// itself stays up for its remaining devices.
type DeviceLeave struct {
	DeviceID int
}

// Boundary marks the end of a round between the cloud and a fleet (see
// MsgBoundary): Round is the round that just completed.
type Boundary struct {
	Round int
}

// RegisterAck confirms a device registration and resyncs its state.
type RegisterAck struct {
	EdgeID int
	// Round is the edge's current round counter (0 before training
	// starts); a reconnecting device rejoins at this point.
	Round int
	// LastSync is the round of the last cloud synchronisation the edge
	// has seen (0 if none yet).
	LastSync int
}

// RoundStart instructs an edge to run one Algorithm 1 time step.
type RoundStart struct {
	Round int
	// Sync marks a T_c boundary: the edge must report its model and
	// will receive the new global model.
	Sync bool
	// Span is the cloud's trace span id for this round ("" when tracing
	// is off); the edge parents its own round span on it so the
	// device→edge→cloud spans of one round form a single trace tree.
	Span string
	// Epoch is the membership epoch the receiving incarnation was
	// welcomed under.
	Epoch int
}

// RoundDone acknowledges a completed round to the cloud.
type RoundDone struct {
	EdgeID int
	Round  int
	// Weight is Σ d_m over devices that trained this sync period
	// (cloud aggregation weight d̂_n); meaningful on sync rounds.
	Weight float64
	// Trained reports how many devices trained this round (diagnostics).
	Trained int
	// Epoch echoes the incarnation epoch from the edge's welcome; the
	// cloud fences frames whose epoch does not match the registered
	// incarnation (a zombie edge that was already declared dead).
	Epoch int
	// Devices lists the device ids currently registered at the edge,
	// reported on sync rounds so the cloud can checkpoint the
	// device→edge assignment. Nil on other rounds.
	Devices []int
}

// Lease is one edge heartbeat. Seq increments per beat so a detector
// can distinguish a fresh lease from a retransmission.
type Lease struct {
	EdgeID int
	Epoch  int
	Seq    int
}

// EdgeWelcome admits an edge incarnation into the membership, assigning
// it the epoch all its subsequent frames must carry. The frame's vector
// payload is the current global model: a rejoining edge adopts it as a
// catch-up sync (its checkpointed local progress predates the current
// sync era and would otherwise re-enter aggregation stale).
type EdgeWelcome struct {
	// Epoch is the incarnation epoch assigned to this edge.
	Epoch int
	// Round is the last completed cloud round; the edge resumes at
	// Round+1.
	Round int
	// LastSync is the round of the most recent cloud synchronisation.
	LastSync int
	// LeaseMillis is the heartbeat interval the cloud's failure detector
	// expects; the edge must send a MsgLease at least this often.
	LeaseMillis int
	// Rejoin marks a mid-run welcome (the run was already past its first
	// round when this edge registered); purely diagnostic.
	Rejoin bool
}

// TrainRequest asks a device to run I local steps; the payload is the
// edge model, from which the device's strategy builds the start model.
type TrainRequest struct {
	Round int
	// DeviceID addresses one of the devices registered on the connection.
	DeviceID int
	// Moved tells the device whether the edge considers it newly
	// arrived (m ∉ M^{t−1}_n), enabling on-device aggregation.
	Moved bool
	// ResetLocal tells the device to discard its carried local model
	// first (issued on the round after a cloud sync, Algorithm 1
	// lines 14–15).
	ResetLocal bool
	// Span is the edge's trace span id for this train RPC ("" when
	// tracing is off); the device parents its training span on it.
	Span string
}

// TrainReply returns the device's updated model and bookkeeping.
type TrainReply struct {
	DeviceID int
	Round    int
	DataSize int
	Utility  float64 // Oort statistical utility
}

// hostLE: a float64 in this host's memory is its wire form, eight
// little-endian bytes, and a payload moves as one copy (putVec, getVec).
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putVec writes the wire form of vec to dst[:8*len(vec)].
func putVec(dst []byte, vec []float64) {
	if hostLE {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec)))
		return
	}
	putVecPortable(dst, vec)
}

// getVec is putVec's inverse: it fills vec from src[:8*len(vec)].
func getVec(vec []float64, src []byte) {
	if hostLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec)), src)
		return
	}
	getVecPortable(vec, src)
}

// putVecPortable, getVecPortable: the payload's definition, value by value; what a big-endian host runs.
func putVecPortable(dst []byte, vec []float64) {
	for i, v := range vec {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getVecPortable(vec []float64, src []byte) {
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// frameBuf is a reusable byte buffer holding one frame: the writer
// assembles a frame in it, the reader stages an arriving one in it.
type frameBuf struct{ b []byte }

// framePool recycles frame buffers across messages and connections. A
// buffer is in the pool only while no frame is in it: the writer returns
// its buffer when Write has returned (every net.Conn and faultConn.Write
// is synchronous and copies what it keeps), the reader once the header
// and the vector have been decoded out of it.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

const (
	// maxPooledFrame is the largest buffer that goes back to the pool — a
	// few model frames. A peer that really sends a larger frame costs one
	// allocation per frame, not a buffer retained on its behalf.
	maxPooledFrame = 1 << 24
	// readChunk is the least the staging buffer grows by while a large
	// frame arrives: its size follows the bytes received (at most
	// doubling), never the length a frame merely claims.
	readChunk = 64 << 10
)

// frameCap rounds a buffer size up to whole pages: model frames of one
// deployment differ by a few header digits, and one buffer fits them all.
func frameCap(n int) int { return (n + 4095) &^ 4095 }

func putFrame(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// WriteMsg frames and writes one message.
func WriteMsg(w io.Writer, t MsgType, header any, vec []float64) error {
	_, err := WriteMsgCount(w, t, header, vec)
	return err
}

// headerRoom is what a frame buffer is sized for beyond its vector before
// the header is encoded: every header but a long device list fits.
const headerRoom = 256

// WriteMsgCount frames and writes one message in a single Write,
// reporting how many bytes actually went onto the wire (which may be
// short on error). header is t's header type, by value (nil or struct{}{}
// for a type without one); a header with a non-finite float is refused.
// Neither header nor vec is retained.
func WriteMsgCount(w io.Writer, t MsgType, header any, vec []float64) (int, error) {
	fb := framePool.Get().(*frameBuf)
	defer putFrame(fb)
	if need := 5 + headerRoom + 4 + 8*len(vec) + 4; cap(fb.b) < need {
		fb.b = make([]byte, 0, frameCap(need))
	}
	e := enc{b: append(fb.b[:0], byte(t), 0, 0, 0, 0)}
	e.encodeHeader(t, header)
	if e.err != nil {
		return 0, fmt.Errorf("fednet: encoding the header of message type %d: %w", t, e.err)
	}
	binary.LittleEndian.PutUint32(e.b[1:], uint32(len(e.b)-5))
	off := len(e.b)
	size := off + 4 + 8*len(vec) + 4
	buf := e.b
	if cap(buf) < size { // a header past headerRoom
		buf = make([]byte, off, frameCap(size))
		copy(buf, e.b)
	}
	fb.b = buf
	buf = buf[:size] // every byte past the header is written below: no clearing
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(vec)))
	off += 4
	putVec(buf[off:], vec)
	off += 8 * len(vec)
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return w.Write(buf)
}

// ReadMsg reads one framed message. Its header is decoded into headerOut
// when that is a pointer to the header type of the frame's MsgType;
// otherwise (nil, say, or a frame of another type) headerOut is left
// alone. The returned vector is freshly allocated and the caller's to
// keep.
func ReadMsg(r io.Reader, headerOut any) (MsgType, []float64, error) {
	t, vec, _, err := readFrame(r, headerOut, nil)
	return t, vec, err
}

// ReadMsgCount is ReadMsg additionally reporting how many bytes were
// consumed from the stream (the partial count on error).
func ReadMsgCount(r io.Reader, headerOut any) (MsgType, []float64, int, error) {
	return readFrame(r, headerOut, nil)
}

// stage reads the next n bytes of a frame from r onto the end of fb.b,
// which grows as they arrive; read counts the bytes consumed.
func (fb *frameBuf) stage(r io.Reader, n int, read *int) error {
	for n > 0 {
		b := fb.b
		if len(b) == cap(b) {
			b = make([]byte, len(b), frameCap(len(b)+min(n, max(readChunk, len(b)))))
			copy(b, fb.b)
		}
		step := min(n, cap(b)-len(b))
		got, err := io.ReadFull(r, b[len(b):len(b)+step])
		*read += got
		fb.b = b[:len(b)+got]
		if err != nil {
			return err
		}
		n -= step
	}
	return nil
}

// fill stages the rest of a frame whose first five bytes (type and header
// length) are head, reading from r, and verifies its CRC; read counts the
// bytes consumed. After a nil error fb.b is exactly the frame; nothing of
// it has been decoded or handed out before that.
func (fb *frameBuf) fill(r io.Reader, head []byte, read *int) error {
	fb.b = append(fb.b[:0], head...)
	hdrLen := binary.LittleEndian.Uint32(head[1:])
	if hdrLen > maxFrame {
		return fmt.Errorf("fednet: header length %d too large", hdrLen)
	}
	if err := fb.stage(r, int(hdrLen), read); err != nil {
		return fmt.Errorf("fednet: reading header: %w", err)
	}
	if err := fb.stage(r, 4, read); err != nil {
		return fmt.Errorf("fednet: reading vector length: %w", err)
	}
	vecLen := binary.LittleEndian.Uint32(fb.b[5+hdrLen:])
	if vecLen > maxFrame/8 {
		return fmt.Errorf("fednet: vector length %d too large", vecLen)
	}
	if err := fb.stage(r, 8*int(vecLen), read); err != nil {
		return fmt.Errorf("fednet: reading vector: %w", err)
	}
	if err := fb.stage(r, 4, read); err != nil {
		return fmt.Errorf("fednet: reading checksum: %w", err)
	}
	end := len(fb.b) - 4
	if binary.LittleEndian.Uint32(fb.b[end:]) != crc32.ChecksumIEEE(fb.b[:end]) {
		return fmt.Errorf("fednet: frame checksum mismatch (type %d): %w", fb.b[0], ErrCorruptFrame)
	}
	return nil
}

// frameHead holds the type and header length of a frame: they arrive on
// their own, so a reader idle between frames holds these five bytes and
// no frame buffer.
type frameHead [5]byte

var headPool = sync.Pool{New: func() any { return new(frameHead) }}

// readFrame is the one frame reader. The frame is staged in a pooled
// buffer and its CRC verified before the header is decoded (decodeHeader:
// into headerOut, by the frame's type) or any value handed out; the
// vector is then decoded into vecFor(vecLen) — storage of at least that
// length which the caller owns and may reuse from frame to frame — or,
// with a nil vecFor, into a fresh vector.
func readFrame(r io.Reader, headerOut any, vecFor func(n int) []float64) (MsgType, []float64, int, error) {
	head := headPool.Get().(*frameHead)
	defer headPool.Put(head)
	total, err := io.ReadFull(r, head[:1])
	if err != nil {
		return 0, nil, total, err
	}
	n, err := io.ReadFull(r, head[1:])
	total += n
	if err != nil {
		return 0, nil, total, fmt.Errorf("fednet: reading header length: %w", err)
	}
	fb := framePool.Get().(*frameBuf)
	defer putFrame(fb)
	if err := fb.fill(r, head[:], &total); err != nil {
		return 0, nil, total, err
	}
	b := fb.b
	t := MsgType(b[0])
	hdrLen := int(binary.LittleEndian.Uint32(b[1:]))
	// Only decode the header once the frame is known intact: a corrupt
	// header that happens to parse must never reach the caller.
	if err := decodeHeader(t, b[5:5+hdrLen], headerOut); err != nil {
		return 0, nil, total, fmt.Errorf("fednet: decoding header: %w", err)
	}
	raw := b[5+hdrLen+4 : len(b)-4]
	var vec []float64
	if n := len(raw) / 8; n > 0 {
		if vecFor != nil {
			vec = vecFor(n)[:n]
		} else {
			vec = make([]float64, n)
		}
		getVec(vec, raw)
	}
	return t, vec, total, nil
}
