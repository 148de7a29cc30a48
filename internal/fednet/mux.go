package fednet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"middle/internal/robust"
	"middle/internal/simil"
)

// edgeMux is the edge-side endpoint of one device-client connection, the
// only way a device attaches to an edge: a write lock serialising frames
// onto the connection plus a single demultiplexing reader that dispatches
// train replies (by TrainRequest.DeviceID), further registrations and
// leave notices. Whether a rule treats a device as dedicated or as one of
// many is read from ids — how many devices ride the connection — not from
// what kind of client opened it.
type edgeMux struct {
	edge *Edge
	conn net.Conn
	wmu  sync.Mutex // serialises frames onto the shared connection

	mu     sync.Mutex
	closed bool
	open   map[int]rpcTag // the train RPCs in flight on this connection, by device

	// ids is the set of devices registered through this connection.
	// Guarded by edge.mu (not mu): registration and selection bookkeeping
	// already run under it.
	ids map[int]bool
}

// rpcTag names one open train RPC: the round that sent it and the
// device's position in that round's cohort.
type rpcTag struct{ round, at int }

var errConnLost = errors.New("device connection lost")

// write frames one message onto the connection under its write lock and
// deadline.
func (mx *edgeMux) write(t MsgType, header any, vec []float64) error {
	return mx.edge.m.deviceLink.writeShared(&mx.wmu, mx.conn, mx.edge.cfg.Timeout, t, header, vec)
}

// openRPC records a train RPC to device id as in flight on mx, so that
// its reply, or the connection's failure, is posted to the edge's inbox
// under tag. It reports false when the connection has already failed.
func (mx *edgeMux) openRPC(id int, tag rpcTag) bool {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.closed {
		return false
	}
	mx.open[id] = tag
	return true
}

// take removes device id's open RPC of round and returns its tag. It
// reports false when mx holds none: the round has closed it, the reply is
// of another round, or a failure has taken it and posted its end.
func (mx *edgeMux) take(id, round int) (rpcTag, bool) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	tag, ok := mx.open[id]
	if ok = ok && tag.round == round; ok {
		delete(mx.open, id)
	}
	return tag, ok
}

// serve is the connection's one reader, from its first frame: a
// registration, read under the Timeout handshake deadline (anything else
// closes the connection), then train replies, which it posts to the
// edge's inbox, further registrations and leave notices.
func (mx *edgeMux) serve() {
	e := mx.edge
	replyBuf := e.replies.get
	var h frameHeaders
	mx.conn.SetReadDeadline(time.Now().Add(e.cfg.Timeout))
	for handshake := true; ; handshake = false {
		t, vec, err := e.m.deviceLink.readMsgInto(mx.conn, &h, replyBuf)
		if handshake {
			if err != nil || t != MsgRegisterMux {
				e.replies.put(vec)
				mx.fail(nil) // not a device client
				return
			}
			mx.conn.SetReadDeadline(time.Time{})
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = nil // the client closed (its last device left), or this edge did
			}
			mx.fail(err)
			return
		}
		switch t {
		case MsgTrainReply:
			if tag, ok := mx.take(h.trainReply.DeviceID, h.trainReply.Round); ok {
				e.inbox <- rpcResult{rpcTag: tag, vec: vec, reply: h.trainReply}
			} else {
				e.replies.put(vec) // late: its round closed the RPC
			}
		case MsgRegisterMux:
			// A device of the client arrived over this connection; ack so
			// its Connect can return.
			if err := e.registerDevices(mx, h.registerMux.Devices, vec); err != nil {
				mx.fail(err)
				return
			}
		case MsgDeviceLeave:
			// Echoed once the device is off the candidate set, so the
			// client's move returns only after this edge let it go.
			e.mu.Lock()
			e.deregisterLocked(h.deviceLeave.DeviceID, mx)
			e.mu.Unlock()
			if err := mx.write(MsgDeviceLeave, h.deviceLeave, nil); err != nil {
				mx.fail(err)
				return
			}
		default:
			mx.fail(fmt.Errorf("unexpected message type %d on device connection", t))
			return
		}
	}
}

// fail closes the connection and deregisters the devices that rode it —
// a client of one leaves by closing, and one whose connection was lost
// re-registers by itself — so selection never sees a device that is not
// there. Its open RPCs end with errConnLost, posted to the inbox, and
// later ones are refused.
func (mx *edgeMux) fail(err error) {
	mx.mu.Lock()
	already := mx.closed
	mx.closed = true
	open := mx.open
	mx.open = nil
	mx.mu.Unlock()
	if already {
		return
	}
	mx.conn.Close()
	e := mx.edge
	e.mu.Lock()
	for id := range mx.ids {
		e.deregisterLocked(id, mx)
	}
	e.mu.Unlock()
	for _, tag := range open {
		e.inbox <- rpcResult{rpcTag: tag, err: errConnLost}
	}
	if err != nil {
		e.cfg.Logf("edge %d: device connection failed: %v", e.cfg.EdgeID, err)
	}
}

// registerDevices installs (or refreshes) the devices a registration
// frame announces on mx, displacing any previous registration of the same
// ids, and acks with the edge's round counter and sync era (the model
// itself arrives with the next TrainRequest); without the ack a
// registration lost to a fault would strand the device silently. vec is
// the frame's payload, decoded from the free list: the carried model of a
// warm registration without scores, back on the list once scored.
func (e *Edge) registerDevices(mx *edgeMux, devices []RegisterDevice, vec []float64) error {
	if len(devices) == 0 {
		e.replies.put(vec)
		return fmt.Errorf("registration without devices")
	}
	for _, rd := range devices {
		if rd.Rehome && len(devices) > 1 {
			e.replies.put(vec)
			return fmt.Errorf("re-home registration with %d devices: the payload belongs to exactly one", len(devices))
		}
	}
	e.mu.Lock()
	for _, rd := range devices {
		if old, ok := e.devices[rd.DeviceID]; ok {
			if old.mux != mx {
				// Re-registered before this edge saw its old connection fail.
				delete(old.mux.ids, rd.DeviceID)
				if len(old.mux.ids) == 0 {
					old.mux.conn.Close()
				}
			}
		}
		d := &deviceState{
			mux:         mx,
			id:          rd.DeviceID,
			dataSize:    rd.DataSize,
			arrivedFrom: rd.PrevEdge,
			statUtil:    math.NaN(),
			lastTrained: -1,
		}
		if rd.Rehome && rd.LastTrained >= 0 {
			e.adoptLocked(d, rd, vec)
			// A warm registration is a migration outcome; a cold one
			// (a device that carries nothing, or a reconnect) is not.
			out := "ok"
			if d.refused {
				out = "rejected"
			}
			e.migrations[out]++
			e.m.migrations[out].Inc()
		} else {
			e.cfg.Logf("edge %d: device %d joined (from edge %d)", e.cfg.EdgeID, rd.DeviceID, rd.PrevEdge)
		}
		e.devices[rd.DeviceID] = d
		mx.ids[rd.DeviceID] = true
	}
	e.m.virtualDevices.Set(float64(len(e.devices)))
	ack := RegisterAck{EdgeID: e.cfg.EdgeID, Round: e.curRound, LastSync: e.lastSync}
	e.mu.Unlock()
	// The payload is scored, or not needed: it is free before the ack.
	e.replies.put(vec)
	return mx.write(MsgRegisterAck, ack, nil) // on error the caller fails mx, deregistering them
}

// adoptLocked makes a warm registration's carried state the device's
// state here. A model trained before this edge's last sync needs nothing
// more: the device holds w_c (trainedSince). Otherwise Eq. 12's drift is
// the one the registration carries or, failing that, the payload's, scored
// on receipt. Either is screened like a train reply: scores no model could
// give, a payload of the wrong size, or a non-finite one when the edge
// validates, are refused — they must not reach Eq. 12 — and the device
// arrives cold. e.mu must be held: the payload is scored against
// cloudSeen in the same sync era as the test.
func (e *Edge) adoptLocked(d *deviceState, rd RegisterDevice, vec []float64) {
	switch {
	case !trainedSince(rd.LastTrained, e.lastSync):
	case rd.Drift != nil && plausible(*rd.Drift):
		d.drift = *rd.Drift
	case rd.Drift == nil && len(vec) == len(e.cloudSeen) && len(vec) > 0 && (!e.agg.Validating() || robust.IsFinite(vec)):
		d.drift.U, d.drift.DeltaNorm = simil.SelectionUtilityNorm(e.cloudSeen, vec)
	default:
		d.refused = true
		e.cfg.Logf("edge %d: refused the carried state of device %d: it arrives cold", e.cfg.EdgeID, rd.DeviceID)
		return
	}
	d.warm, d.lastTrained = true, rd.LastTrained
	if rd.Utility != 0 {
		d.statUtil = rd.Utility
	}
	e.cfg.Logf("edge %d: device %d arrived warm (last trained under edge %d)", e.cfg.EdgeID, rd.DeviceID, rd.PrevEdge)
}

// plausible reports whether dr is a drift some model gives:
// U(w_c, Δw) ∈ [0, 1] and ‖Δw‖ ≥ 0, both finite.
func plausible(dr Drift) bool { return dr.U >= 0 && dr.U <= 1 && dr.DeltaNorm >= 0 && finite(dr) }

// deregisterLocked takes device id off the candidate set as registered
// through mx; a registration through another connection since stays.
// e.mu must be held.
func (e *Edge) deregisterLocked(id int, mx *edgeMux) {
	if d, ok := e.devices[id]; ok && d.mux == mx {
		delete(e.devices, id)
		e.m.virtualDevices.Set(float64(len(e.devices)))
	}
	delete(mx.ids, id)
}
