package fednet

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// Device multiplexing is the client half of the million-device
// scale-out: instead of one goroutine, one TCP connection and one
// network instance per device, a DeviceMux serves N virtual devices
// from one client process — one connection and one reader goroutine per
// edge it is attached to, one shared model instance trained under a
// lock. Virtual devices keep their own carried local models, shard
// indices and deterministic seed streams, so a virtual device trains
// bit-identically to a dedicated Device given the same start model.
//
// The edge side is edgeMux: a write lock serialising request frames
// onto the shared connection plus a single demultiplexing reader that
// dispatches train replies (by TrainRequest.DeviceID), late
// registrations and leave notices. Unlike dedicated devices, a mux
// client does not auto-reconnect: a transport failure deregisters all
// its virtual devices on that edge until mobility re-attaches them.

// --- edge side --------------------------------------------------------------

// edgeMux is the edge-side endpoint of one multiplexed connection.
type edgeMux struct {
	edge *Edge
	conn net.Conn
	wmu  sync.Mutex // serialises frames onto the shared connection

	mu      sync.Mutex
	closed  bool
	waiters map[int]chan muxTrainResult // in-flight round-trips by device

	// ids is the set of virtual devices registered through this
	// connection. Guarded by edge.mu (not mu): registration and
	// selection bookkeeping already run under it.
	ids map[int]bool
}

// muxTrainResult is one delivered (or failed) multiplexed round-trip.
type muxTrainResult struct {
	vec   []float64
	reply TrainReply
	err   error
}

// roundTrip sends one train request over the shared connection and
// waits for the demux reader to deliver the matching reply.
func (mx *edgeMux) roundTrip(id int, req TrainRequest, model []float64, timeout time.Duration) ([]float64, TrainReply, error) {
	ch := make(chan muxTrainResult, 1)
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return nil, TrainReply{}, fmt.Errorf("mux connection closed")
	}
	if _, busy := mx.waiters[id]; busy {
		mx.mu.Unlock()
		return nil, TrainReply{}, fmt.Errorf("device %d already has a mux request in flight", id)
	}
	mx.waiters[id] = ch
	mx.mu.Unlock()

	mx.wmu.Lock()
	mx.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := mx.edge.m.deviceLink.writeMsg(mx.conn, MsgTrainRequest, req, model)
	mx.conn.SetWriteDeadline(time.Time{})
	mx.wmu.Unlock()
	if err != nil {
		mx.unwait(id)
		mx.edge.dropMux(mx, err)
		return nil, TrainReply{}, err
	}
	select {
	case res := <-ch:
		return res.vec, res.reply, res.err
	case <-time.After(timeout):
		// Only this round-trip is late; the stream itself may be healthy
		// (the client trains its virtual devices sequentially), so the
		// connection survives and a stale delivery is simply dropped.
		mx.unwait(id)
		return nil, TrainReply{}, fmt.Errorf("device %d mux round-trip timed out", id)
	}
}

func (mx *edgeMux) unwait(id int) {
	mx.mu.Lock()
	delete(mx.waiters, id)
	mx.mu.Unlock()
}

// serve is the demultiplexing reader: one goroutine per mux connection.
func (mx *edgeMux) serve() {
	e := mx.edge
	for {
		var h struct {
			DeviceID int              `json:"device_id"`
			Round    int              `json:"round"`
			DataSize int              `json:"data_size"`
			Utility  float64          `json:"utility"`
			Devices  []RegisterDevice `json:"devices"`
		}
		t, vec, err := e.m.deviceLink.readMsg(mx.conn, &h)
		if err != nil {
			e.dropMux(mx, err)
			return
		}
		switch t {
		case MsgTrainReply:
			mx.mu.Lock()
			ch := mx.waiters[h.DeviceID]
			delete(mx.waiters, h.DeviceID)
			mx.mu.Unlock()
			if ch != nil {
				ch <- muxTrainResult{vec: vec, reply: TrainReply{
					DeviceID: h.DeviceID, Round: h.Round, DataSize: h.DataSize, Utility: h.Utility,
				}}
			}
		case MsgRegisterMux:
			// A virtual device migrated onto this edge over the existing
			// connection; ack so the client's Connect can return.
			e.registerMuxDevices(mx, h.Devices)
			e.mu.Lock()
			ack := RegisterAck{EdgeID: e.cfg.EdgeID, Round: e.curRound, LastSync: e.lastSync}
			model := e.edgeModel
			e.mu.Unlock()
			mx.wmu.Lock()
			werr := e.m.deviceLink.writeMsg(mx.conn, MsgRegisterAck, ack, model)
			mx.wmu.Unlock()
			if werr != nil {
				e.dropMux(mx, werr)
				return
			}
		case MsgDeviceLeave:
			e.removeMuxDevice(mx, h.DeviceID)
		case MsgShutdown:
			e.dropMux(mx, nil)
			return
		default:
			e.dropMux(mx, fmt.Errorf("unexpected message type %d on mux connection", t))
			return
		}
	}
}

// acceptMux completes the handshake of a new multiplexed connection:
// register the announced batch, ack once with the current edge model,
// then hand the connection to its demux reader.
func (e *Edge) acceptMux(conn net.Conn, devices []RegisterDevice) {
	if len(devices) == 0 {
		conn.Close()
		return
	}
	mx := &edgeMux{
		edge:    e,
		conn:    conn,
		waiters: map[int]chan muxTrainResult{},
		ids:     map[int]bool{},
	}
	e.registerMuxDevices(mx, devices)
	e.mu.Lock()
	ack := RegisterAck{EdgeID: e.cfg.EdgeID, Round: e.curRound, LastSync: e.lastSync}
	model := e.edgeModel
	e.mu.Unlock()
	if err := e.m.deviceLink.writeMsg(conn, MsgRegisterAck, ack, model); err != nil {
		e.dropMux(mx, err)
		return
	}
	conn.SetDeadline(time.Time{})
	e.cfg.Logf("edge %d: mux connection joined with %d virtual devices", e.cfg.EdgeID, len(devices))
	go mx.serve()
}

// registerMuxDevices installs (or refreshes) a batch of virtual devices
// attached through mx, displacing any previous registration of the same
// device id.
func (e *Edge) registerMuxDevices(mx *edgeMux, devices []RegisterDevice) {
	e.mu.Lock()
	for _, rd := range devices {
		if old, ok := e.devices[rd.DeviceID]; ok {
			if old.mux == nil {
				old.conn.Close()
				e.m.reconnects.Inc()
			} else if old.mux != mx {
				delete(old.mux.ids, rd.DeviceID)
			}
		}
		d := &deviceState{
			conn:        mx.conn,
			mux:         mx,
			id:          rd.DeviceID,
			dataSize:    rd.DataSize,
			arrivedFrom: rd.PrevEdge,
			statUtil:    math.NaN(),
			lastTrained: -1,
		}
		e.devices[rd.DeviceID] = d
		// Warm-merge a pending handover: model and timeline only — mux
		// clients share one optimizer across virtual devices, so moment
		// resume is meaningless on this path (consumeHandoverLocked skips
		// it for mux-attached states).
		e.consumeHandoverLocked(d)
		mx.ids[rd.DeviceID] = true
		e.cfg.Logf("edge %d: virtual device %d joined (from edge %d)", e.cfg.EdgeID, rd.DeviceID, rd.PrevEdge)
	}
	e.setVirtualGaugeLocked()
	e.mu.Unlock()
}

// removeMuxDevice forgets one virtual device (it moved to another edge)
// while keeping the shared connection for its remaining siblings.
func (e *Edge) removeMuxDevice(mx *edgeMux, id int) {
	e.mu.Lock()
	if d, ok := e.devices[id]; ok && d.mux == mx {
		delete(e.devices, id)
	}
	delete(mx.ids, id)
	e.setVirtualGaugeLocked()
	e.mu.Unlock()
}

// dropMux tears one multiplexed connection down: every virtual device
// it carried is deregistered and in-flight round-trips fail fast.
func (e *Edge) dropMux(mx *edgeMux, err error) {
	mx.mu.Lock()
	already := mx.closed
	mx.closed = true
	waiters := mx.waiters
	mx.waiters = map[int]chan muxTrainResult{}
	mx.mu.Unlock()
	for _, ch := range waiters {
		ch <- muxTrainResult{err: fmt.Errorf("mux connection lost")}
	}
	if already {
		return
	}
	mx.conn.Close()
	e.mu.Lock()
	for id := range mx.ids {
		if d, ok := e.devices[id]; ok && d.mux == mx {
			delete(e.devices, id)
		}
	}
	mx.ids = map[int]bool{}
	e.setVirtualGaugeLocked()
	e.mu.Unlock()
	if err != nil {
		e.cfg.Logf("edge %d: mux connection failed: %v", e.cfg.EdgeID, err)
	}
}

// setVirtualGaugeLocked refreshes fednet_virtual_devices. e.mu held.
func (e *Edge) setVirtualGaugeLocked() {
	n := 0
	for _, d := range e.devices {
		if d.mux != nil {
			n++
		}
	}
	e.m.virtualDevices.Set(float64(n))
}

// --- client side ------------------------------------------------------------

// MuxDevice describes one virtual device hosted by a DeviceMux.
type MuxDevice struct {
	DeviceID int
	// Indices is the device's local shard within the shared dataset.
	Indices []int
}

// DeviceMuxConfig configures a device multiplexer.
type DeviceMuxConfig struct {
	// Devices are the virtual devices this client serves.
	Devices []MuxDevice
	// Dataset is shared by every virtual device (each sees only its own
	// Indices window).
	Dataset *data.Dataset
	// Factory builds the single shared network instance.
	Factory func(rng *tensor.RNG) *nn.Network
	// Optimizer is shared across virtual devices; it is Reset before
	// every training round, exactly like a dedicated device's.
	Optimizer optim.Optimizer
	// LocalSteps (I) and BatchSize per training round.
	LocalSteps int
	BatchSize  int
	// Strategy supplies the on-device start model, as in DeviceConfig
	// (shared).
	Strategy hfl.Strategy
	// Seed derives each virtual device's batch-sampling randomness; the
	// stream depends only on (Seed, round, deviceID), so virtual and
	// dedicated devices sample identical batches.
	Seed int64
	// Timeout bounds network operations (default 30 s).
	Timeout time.Duration
	// Faults, when set, injects faults on the device→edge links.
	Faults *FaultInjector
	// Obs, when set, receives per-message byte/latency metrics.
	Obs *obs.Registry
}

// DeviceMux serves many virtual devices from one client: one connection
// and one serve goroutine per attached edge, one shared model instance.
// Training requests arriving on any connection are handled sequentially
// per connection and serialised across connections by trainMu.
type DeviceMux struct {
	cfg DeviceMuxConfig
	lt  localTrainer
	m   deviceMetrics

	trainMu sync.Mutex // one shared model instance: training serialises

	mu     sync.Mutex
	closed bool
	virts  map[int]*virtualDevice
	conns  map[int]*muxClientConn // by edge id
}

// virtualDevice is one device's private state inside a DeviceMux.
type virtualDevice struct {
	indices []int
	edge    int // currently attached edge (−1 when detached)
	carried
}

// muxClientConn is the client end of one edge attachment.
type muxClientConn struct {
	edgeID int
	conn   net.Conn
	wmu    sync.Mutex
	acks   chan RegisterAck
	done   chan struct{}
}

// NewDeviceMux builds a device multiplexer (not yet attached anywhere;
// use Connect per virtual device).
func NewDeviceMux(cfg DeviceMuxConfig) (*DeviceMux, error) {
	if cfg.Dataset == nil || len(cfg.Devices) == 0 || cfg.Factory == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("fednet: incomplete device mux config (%d devices)", len(cfg.Devices))
	}
	if cfg.LocalSteps < 1 {
		cfg.LocalSteps = 10
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	m := newDeviceMetrics(cfg.Obs)
	mx := &DeviceMux{
		cfg: cfg,
		lt: localTrainer{
			Trainer:  hfl.Trainer{Net: cfg.Factory(tensor.Split(cfg.Seed, 999)), Opt: cfg.Optimizer},
			strategy: cfg.Strategy, dataset: cfg.Dataset,
			localSteps: cfg.LocalSteps, batchSize: cfg.BatchSize,
			seed: cfg.Seed, nonfinite: m.nonfinite,
		},
		m:     m,
		virts: map[int]*virtualDevice{},
		conns: map[int]*muxClientConn{},
	}
	for _, d := range cfg.Devices {
		if len(d.Indices) == 0 {
			return nil, fmt.Errorf("fednet: virtual device %d has no data", d.DeviceID)
		}
		mx.virts[d.DeviceID] = &virtualDevice{indices: d.Indices, edge: -1, carried: carried{prevEdge: -1, lastTrained: -1}}
	}
	return mx, nil
}

// Connect attaches one virtual device to the edge at addr. A leave
// notice is sent to the device's previous edge (the "move"), and the
// multiplexer dials the new edge only if it has no connection there yet
// — that sharing is the point: N virtual devices per edge cost one
// socket and one goroutine, not N.
func (mx *DeviceMux) Connect(deviceID, edgeID int, addr string) error {
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return fmt.Errorf("fednet: device mux is shut down")
	}
	v := mx.virts[deviceID]
	if v == nil {
		mx.mu.Unlock()
		return fmt.Errorf("fednet: unknown virtual device %d", deviceID)
	}
	if v.edge == edgeID {
		mx.mu.Unlock()
		return nil
	}
	old := mx.conns[v.edge]
	cc := mx.conns[edgeID]
	reg := RegisterDevice{DeviceID: deviceID, DataSize: len(v.indices), PrevEdge: v.prevEdge}
	mx.mu.Unlock()

	if old != nil {
		old.wmu.Lock()
		old.conn.SetWriteDeadline(time.Now().Add(mx.cfg.Timeout))
		err := mx.m.link.writeMsg(old.conn, MsgDeviceLeave, DeviceLeave{DeviceID: deviceID}, nil)
		old.conn.SetWriteDeadline(time.Time{})
		old.wmu.Unlock()
		if err != nil {
			mx.dropConn(old)
		}
	}
	if cc == nil {
		var err error
		cc, err = mx.dial(edgeID, addr, reg)
		if err != nil {
			return err
		}
	} else {
		cc.wmu.Lock()
		cc.conn.SetWriteDeadline(time.Now().Add(mx.cfg.Timeout))
		err := mx.m.link.writeMsg(cc.conn, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{reg}}, nil)
		cc.conn.SetWriteDeadline(time.Time{})
		cc.wmu.Unlock()
		if err != nil {
			mx.dropConn(cc)
			return fmt.Errorf("fednet: virtual device %d registering at edge %d: %w", deviceID, edgeID, err)
		}
		// Wait for the edge's ack (delivered by the serve loop) so the
		// device is selectable before the move is considered complete.
		select {
		case <-cc.acks:
		case <-cc.done:
			return fmt.Errorf("fednet: edge %d connection lost during registration", edgeID)
		case <-time.After(mx.cfg.Timeout):
			return fmt.Errorf("fednet: edge %d registration ack timed out", edgeID)
		}
	}
	mx.mu.Lock()
	v.edge = edgeID
	mx.mu.Unlock()
	return nil
}

// dial opens the multiplexer's connection to a new edge, registering
// the first virtual device as part of the handshake.
func (mx *DeviceMux) dial(edgeID int, addr string, first RegisterDevice) (*muxClientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: mux dialing edge %d: %w", edgeID, err)
	}
	conn = mx.cfg.Faults.WrapDeviceLink(conn, first.DeviceID)
	conn.SetDeadline(time.Now().Add(mx.cfg.Timeout))
	if err := mx.m.link.writeMsg(conn, MsgRegisterMux, RegisterMux{Devices: []RegisterDevice{first}}, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fednet: mux registering at edge %d: %w", edgeID, err)
	}
	var ack RegisterAck
	t, _, err := mx.m.link.readMsg(conn, &ack)
	if err != nil || t != MsgRegisterAck {
		conn.Close()
		return nil, fmt.Errorf("fednet: mux awaiting register ack from edge %d: type %d, %v", edgeID, t, err)
	}
	conn.SetDeadline(time.Time{})
	cc := &muxClientConn{
		edgeID: edgeID, conn: conn,
		acks: make(chan RegisterAck, 8),
		done: make(chan struct{}),
	}
	mx.mu.Lock()
	mx.conns[edgeID] = cc
	mx.mu.Unlock()
	go mx.serveConn(cc)
	return cc, nil
}

// serveConn handles one edge connection: train requests addressed to
// any of the multiplexer's virtual devices, plus registration acks.
func (mx *DeviceMux) serveConn(cc *muxClientConn) {
	defer close(cc.done)
	defer cc.conn.Close()
	for {
		var h struct {
			TrainRequest
			EdgeID   int `json:"edge_id"`
			LastSync int `json:"last_sync"`
		}
		t, edgeModel, err := mx.m.link.readMsg(cc.conn, &h)
		if err != nil {
			mx.dropConn(cc)
			return
		}
		switch t {
		case MsgShutdown:
			mx.dropConn(cc)
			return
		case MsgRegisterAck:
			select {
			case cc.acks <- RegisterAck{EdgeID: h.EdgeID, Round: h.Round, LastSync: h.LastSync}:
			default:
			}
			continue
		case MsgTrainRequest:
		default:
			mx.dropConn(cc)
			return
		}
		trainTok := mx.m.trainSpan.Begin()
		vec, reply, terr := mx.train(h.TrainRequest, edgeModel, cc.edgeID)
		trainTok.End()
		if terr != nil {
			// Inconsistent frame state (moved-blend length mismatch):
			// treat like a corrupt stream — drop the connection so every
			// rider resyncs through re-registration instead of training
			// from a stale model.
			mx.m.link.corrupt.Inc()
			mx.dropConn(cc)
			return
		}
		cc.wmu.Lock()
		cc.conn.SetWriteDeadline(time.Now().Add(mx.cfg.Timeout))
		werr := mx.m.link.writeMsg(cc.conn, MsgTrainReply, reply, vec)
		cc.conn.SetWriteDeadline(time.Time{})
		cc.wmu.Unlock()
		if werr != nil {
			mx.dropConn(cc)
			return
		}
	}
}

// train serves one virtual device's training request on the shared
// compute state. A non-nil error rejects the request's state as corrupt
// (teardown + resync).
func (mx *DeviceMux) train(req TrainRequest, edgeModel []float64, edgeID int) ([]float64, TrainReply, error) {
	mx.mu.Lock()
	v := mx.virts[req.DeviceID]
	mx.mu.Unlock()
	if v == nil {
		// Unknown virtual device (a move raced the request): an empty
		// reply lets the edge's retry loop resolve it without stalling.
		return nil, TrainReply{DeviceID: req.DeviceID, Round: req.Round}, nil
	}
	mx.trainMu.Lock()
	vec, util, err := mx.lt.round(&mx.mu, &v.carried, req.DeviceID, v.indices, req, edgeModel, edgeID, false)
	mx.trainMu.Unlock()
	if err != nil {
		return nil, TrainReply{}, err
	}
	return vec, TrainReply{
		DeviceID: req.DeviceID,
		Round:    req.Round,
		DataSize: len(v.indices),
		Utility:  util,
	}, nil
}

// dropConn detaches every virtual device riding cc and forgets the
// connection; mobility re-attaches them on their next move.
func (mx *DeviceMux) dropConn(cc *muxClientConn) {
	cc.conn.Close()
	mx.mu.Lock()
	if mx.conns[cc.edgeID] == cc {
		delete(mx.conns, cc.edgeID)
		for _, v := range mx.virts {
			if v.edge == cc.edgeID {
				v.edge = -1
			}
		}
	}
	mx.mu.Unlock()
}

// Disconnect detaches from every edge and waits for the serve loops.
func (mx *DeviceMux) Disconnect() {
	mx.mu.Lock()
	mx.closed = true
	conns := make([]*muxClientConn, 0, len(mx.conns))
	for _, cc := range mx.conns {
		conns = append(conns, cc)
	}
	mx.conns = map[int]*muxClientConn{}
	for _, v := range mx.virts {
		v.edge = -1
	}
	mx.mu.Unlock()
	for _, cc := range conns {
		cc.conn.Close()
		<-cc.done
	}
}

// DeviceRounds returns how many rounds one virtual device trained.
func (mx *DeviceMux) DeviceRounds(id int) int {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if v := mx.virts[id]; v != nil {
		return v.rounds
	}
	return 0
}

// LocalModel returns a copy of one virtual device's carried local model
// (nil before it ever trained).
func (mx *DeviceMux) LocalModel(id int) []float64 {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if v := mx.virts[id]; v != nil && v.local != nil {
		return append([]float64(nil), v.local...)
	}
	return nil
}
