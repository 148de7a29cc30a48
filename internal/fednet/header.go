package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Frame headers in their fixed little-endian layouts (the table in the
// package comment). A header type encodes itself with put, from a value,
// and decodes itself with get, in place: a reading loop that decodes into
// the same value frame after frame reuses its slices, Drift and Span, and
// allocates nothing for a header once they have grown.

// header is a decodable message header; msgType names the one MsgType
// whose frames carry it.
type header interface {
	msgType() MsgType
	get(b []byte) error
}

var (
	errNonFinite = errors.New("non-finite float")
	errBadFlag   = errors.New("flag byte not 0 or 1")
)

// enc appends header fields in their wire form; err is the first value it
// refused: a non-finite float, which no reader accepts.
type enc struct {
	b   []byte
	err error
}

func (e *enc) putInt(v int) { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }

func (e *enc) putFloat(v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && e.err == nil {
		e.err = errNonFinite
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *enc) putBool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) putLen(n int) { e.b = binary.LittleEndian.AppendUint32(e.b, uint32(n)) }

func (e *enc) putStr(s string) {
	e.putLen(len(s))
	e.b = append(e.b, s...)
}

// encodeHeader appends header, which must be t's header type by value
// (nil or struct{}{} for the types without one), to e. Its values are
// only read: nothing of header escapes, so a caller's conversion to any
// costs no allocation.
func (e *enc) encodeHeader(t MsgType, header any) {
	var of MsgType
	switch h := header.(type) {
	case nil, struct{}:
		if headerless(t) {
			return
		}
	case RegisterEdge:
		of = h.msgType()
		h.put(e)
	case RegisterMux:
		of = h.msgType()
		h.put(e)
	case RoundStart:
		of = h.msgType()
		h.put(e)
	case RoundDone:
		of = h.msgType()
		h.put(e)
	case TrainRequest:
		of = h.msgType()
		h.put(e)
	case TrainReply:
		of = h.msgType()
		h.put(e)
	case RegisterAck:
		of = h.msgType()
		h.put(e)
	case DeviceLeave:
		of = h.msgType()
		h.put(e)
	case Lease:
		of = h.msgType()
		h.put(e)
	case EdgeWelcome:
		of = h.msgType()
		h.put(e)
	case Scores:
		of = h.msgType()
		h.put(e)
	case Boundary:
		of = h.msgType()
		h.put(e)
	}
	if of != t && e.err == nil {
		e.err = fmt.Errorf("not the header of message type %d", t)
	}
}

// dec reads header fields from their wire form; err is the first fault,
// after which every read returns zero.
type dec struct {
	b   []byte
	err error
}

// take consumes the next n bytes, or fails when fewer remain.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = fmt.Errorf("header ends %d bytes short", n-len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) getInt() int {
	p := d.take(8)
	if p == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(p))
	if int64(int(v)) != v {
		d.err = fmt.Errorf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *dec) getFloat() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.err = errNonFinite
		return 0
	}
	return v
}

func (d *dec) getBool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.err = errBadFlag
	}
	return p[0] == 1
}

// getLen reads a count of entries of at least entry bytes each and fails
// when the bytes left cannot hold them, so no count claims storage beyond
// the header bytes received.
func (d *dec) getLen(entry int) int {
	p := d.take(4)
	if p == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n)*uint64(entry) > uint64(len(d.b)) {
		d.err = fmt.Errorf("%d entries of %d bytes claimed, %d bytes left", n, entry, len(d.b))
		return 0
	}
	return int(n)
}

// getStr reads a string, returning old itself when it holds the same
// bytes (no allocation for a repeated or empty one).
func (d *dec) getStr(old string) string {
	p := d.take(d.getLen(1))
	if string(p) == old {
		return old
	}
	return string(p)
}

// done is the decoding's error: its first fault, or bytes left over.
func (d *dec) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d bytes past the header", len(d.b))
	}
	return d.err
}

func (RegisterEdge) msgType() MsgType { return MsgRegisterEdge }
func (h RegisterEdge) put(e *enc)     { e.putInt(h.EdgeID) }
func (h *RegisterEdge) get(b []byte) error {
	d := dec{b: b}
	h.EdgeID = d.getInt()
	return d.done()
}

// registerDeviceBytes is the least a RegisterMux entry takes: one without
// Drift.
const registerDeviceBytes = 3*8 + 1 + 8 + 8 + 1

func (RegisterMux) msgType() MsgType { return MsgRegisterMux }
func (h RegisterMux) put(e *enc) {
	e.putLen(len(h.Devices))
	for _, rd := range h.Devices {
		e.putInt(rd.DeviceID)
		e.putInt(rd.DataSize)
		e.putInt(rd.PrevEdge)
		e.putBool(rd.Rehome)
		e.putFloat(rd.Utility)
		e.putInt(rd.LastTrained)
		e.putBool(rd.Drift != nil)
		if rd.Drift != nil {
			e.putFloat(rd.Drift.U)
			e.putFloat(rd.Drift.DeltaNorm)
		}
	}
}

// get decodes the entries into h.Devices' storage (none leaves a nil one
// nil), and each Drift into the one its entry held, when it held one.
func (h *RegisterMux) get(b []byte) error {
	d := dec{b: b}
	n := d.getLen(registerDeviceBytes)
	if n > cap(h.Devices) {
		h.Devices = make([]RegisterDevice, n)
	}
	h.Devices = h.Devices[:n]
	for i := range h.Devices {
		rd := &h.Devices[i]
		rd.DeviceID, rd.DataSize, rd.PrevEdge = d.getInt(), d.getInt(), d.getInt()
		rd.Rehome, rd.Utility, rd.LastTrained = d.getBool(), d.getFloat(), d.getInt()
		if !d.getBool() {
			rd.Drift = nil
			continue
		}
		if rd.Drift == nil {
			rd.Drift = new(Drift)
		}
		rd.Drift.U, rd.Drift.DeltaNorm = d.getFloat(), d.getFloat()
	}
	return d.done()
}

func (RoundStart) msgType() MsgType { return MsgRoundStart }
func (h RoundStart) put(e *enc) {
	e.putInt(h.Round)
	e.putBool(h.Sync)
	e.putStr(h.Span)
	e.putInt(h.Epoch)
}
func (h *RoundStart) get(b []byte) error {
	d := dec{b: b}
	h.Round, h.Sync, h.Span, h.Epoch = d.getInt(), d.getBool(), d.getStr(h.Span), d.getInt()
	return d.done()
}

func (RoundDone) msgType() MsgType { return MsgRoundDone }
func (h RoundDone) put(e *enc) {
	e.putInt(h.EdgeID)
	e.putInt(h.Round)
	e.putFloat(h.Weight)
	e.putInt(h.Trained)
	e.putInt(h.Epoch)
	e.putLen(len(h.Devices))
	for _, id := range h.Devices {
		e.putInt(id)
	}
}

// get decodes Devices into h.Devices' storage (none leaves a nil one nil).
func (h *RoundDone) get(b []byte) error {
	d := dec{b: b}
	h.EdgeID, h.Round, h.Weight, h.Trained, h.Epoch = d.getInt(), d.getInt(), d.getFloat(), d.getInt(), d.getInt()
	n := d.getLen(8)
	if n > cap(h.Devices) {
		h.Devices = make([]int, n)
	}
	h.Devices = h.Devices[:n]
	for i := range h.Devices {
		h.Devices[i] = d.getInt()
	}
	return d.done()
}

func (TrainRequest) msgType() MsgType { return MsgTrainRequest }
func (h TrainRequest) put(e *enc) {
	e.putInt(h.Round)
	e.putInt(h.DeviceID)
	e.putBool(h.Moved)
	e.putBool(h.ResetLocal)
	e.putStr(h.Span)
}
func (h *TrainRequest) get(b []byte) error {
	d := dec{b: b}
	h.Round, h.DeviceID, h.Moved, h.ResetLocal = d.getInt(), d.getInt(), d.getBool(), d.getBool()
	h.Span = d.getStr(h.Span)
	return d.done()
}

func (TrainReply) msgType() MsgType { return MsgTrainReply }
func (h TrainReply) put(e *enc) {
	e.putInt(h.DeviceID)
	e.putInt(h.Round)
	e.putInt(h.DataSize)
	e.putFloat(h.Utility)
}
func (h *TrainReply) get(b []byte) error {
	d := dec{b: b}
	h.DeviceID, h.Round, h.DataSize, h.Utility = d.getInt(), d.getInt(), d.getInt(), d.getFloat()
	return d.done()
}

func (RegisterAck) msgType() MsgType { return MsgRegisterAck }
func (h RegisterAck) put(e *enc) {
	e.putInt(h.EdgeID)
	e.putInt(h.Round)
	e.putInt(h.LastSync)
}
func (h *RegisterAck) get(b []byte) error {
	d := dec{b: b}
	h.EdgeID, h.Round, h.LastSync = d.getInt(), d.getInt(), d.getInt()
	return d.done()
}

func (DeviceLeave) msgType() MsgType { return MsgDeviceLeave }
func (h DeviceLeave) put(e *enc)     { e.putInt(h.DeviceID) }
func (h *DeviceLeave) get(b []byte) error {
	d := dec{b: b}
	h.DeviceID = d.getInt()
	return d.done()
}

func (Lease) msgType() MsgType { return MsgLease }
func (h Lease) put(e *enc) {
	e.putInt(h.EdgeID)
	e.putInt(h.Epoch)
	e.putInt(h.Seq)
}
func (h *Lease) get(b []byte) error {
	d := dec{b: b}
	h.EdgeID, h.Epoch, h.Seq = d.getInt(), d.getInt(), d.getInt()
	return d.done()
}

func (EdgeWelcome) msgType() MsgType { return MsgEdgeWelcome }
func (h EdgeWelcome) put(e *enc) {
	e.putInt(h.Epoch)
	e.putInt(h.Round)
	e.putInt(h.LastSync)
	e.putInt(h.LeaseMillis)
	e.putBool(h.Rejoin)
}
func (h *EdgeWelcome) get(b []byte) error {
	d := dec{b: b}
	h.Epoch, h.Round, h.LastSync, h.LeaseMillis, h.Rejoin = d.getInt(), d.getInt(), d.getInt(), d.getInt(), d.getBool()
	return d.done()
}

func (Scores) msgType() MsgType { return MsgScores }
func (h Scores) put(e *enc) {
	e.putInt(h.DeviceID)
	e.putInt(h.Round)
	e.putFloat(h.U)
	e.putFloat(h.DeltaNorm)
}
func (h *Scores) get(b []byte) error {
	d := dec{b: b}
	h.DeviceID, h.Round, h.U, h.DeltaNorm = d.getInt(), d.getInt(), d.getFloat(), d.getFloat()
	return d.done()
}

func (Boundary) msgType() MsgType { return MsgBoundary }
func (h Boundary) put(e *enc)     { e.putInt(h.Round) }
func (h *Boundary) get(b []byte) error {
	d := dec{b: b}
	h.Round = d.getInt()
	return d.done()
}

// frameHeaders is the header storage of a reading loop that takes frames
// of several types: readFrame decodes each frame's header into the field
// its type byte names, reusing that field's storage from frame to frame,
// and leaves the others as they were.
type frameHeaders struct {
	registerEdge RegisterEdge
	registerMux  RegisterMux
	roundStart   RoundStart
	roundDone    RoundDone
	trainRequest TrainRequest
	trainReply   TrainReply
	registerAck  RegisterAck
	deviceLeave  DeviceLeave
	lease        Lease
	edgeWelcome  EdgeWelcome
	scores       Scores
	boundary     Boundary
}

// of is the field that takes t's header; nil for a type without one.
func (hs *frameHeaders) of(t MsgType) header {
	switch t {
	case MsgRegisterEdge:
		return &hs.registerEdge
	case MsgRegisterMux:
		return &hs.registerMux
	case MsgRoundStart:
		return &hs.roundStart
	case MsgRoundDone:
		return &hs.roundDone
	case MsgTrainRequest:
		return &hs.trainRequest
	case MsgTrainReply:
		return &hs.trainReply
	case MsgRegisterAck:
		return &hs.registerAck
	case MsgDeviceLeave:
		return &hs.deviceLeave
	case MsgLease:
		return &hs.lease
	case MsgEdgeWelcome:
		return &hs.edgeWelcome
	case MsgScores:
		return &hs.scores
	case MsgBoundary:
		return &hs.boundary
	}
	return nil
}

// headerless reports whether t's frames carry no header.
func headerless(t MsgType) bool { return t == MsgGlobalModel || t == MsgShutdown }

// decodeHeader decodes b, a frame's header bytes, as t's header into out:
// into the field of a *frameHeaders that t names, or into out itself when
// it is a pointer to t's header type. Any other out (nil included) is left
// alone, and b only checked against t's layout, so whether a frame is
// accepted never depends on what its reader asked for.
func decodeHeader(t MsgType, b []byte, out any) error {
	if hs, ok := out.(*frameHeaders); ok {
		out = hs.of(t)
	}
	switch h, ok := out.(header); {
	case ok && h.msgType() == t:
		return h.get(b)
	case headerless(t) && len(b) > 0:
		return fmt.Errorf("%d header bytes on message type %d, which has none", len(b), t)
	case headerless(t):
		return nil
	}
	return checkHeader(t, b)
}

// checkHeader decodes b as t's header into a scratch value, which a
// reading loop's own header storage saves it; a type the protocol does
// not have is an error.
func checkHeader(t MsgType, b []byte) error {
	var scratch frameHeaders
	h := scratch.of(t)
	if h == nil {
		return fmt.Errorf("unknown message type %d", t)
	}
	return h.get(b)
}
