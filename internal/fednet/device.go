package fednet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// The device tier has one client, DeviceMux: it hosts N ≥ 1 devices over
// one connection and one reader goroutine per edge it is attached to,
// with one model instance trained under a lock. Each device keeps its own
// carried local model, shard indices and deterministic seed stream, so it
// trains bit-identically at any group size given the same start model. A
// client of one is a dedicated device: it opens a socket when its device
// arrives at an edge and closes it when the device leaves.

// MuxDevice describes one device hosted by a DeviceMux.
type MuxDevice struct {
	DeviceID int
	// Indices is the device's local shard within the shared dataset.
	Indices []int
}

// EdgeAddr names one failover candidate.
type EdgeAddr struct {
	ID   int
	Addr string
}

// DeviceMuxConfig configures a device client.
type DeviceMuxConfig struct {
	// Devices are the devices this client hosts (at least one).
	Devices []MuxDevice
	// Dataset is shared by every hosted device (each sees only its own
	// Indices window).
	Dataset *data.Dataset
	// Factory builds the single shared network instance.
	Factory func(rng *tensor.RNG) *nn.Network
	// Optimizer is shared across hosted devices. It is reset before every
	// training round unless the device resumes the state it kept itself,
	// so nothing of one device's round reaches the next.
	Optimizer optim.Optimizer
	// LocalSteps (I) and BatchSize per training round.
	LocalSteps int
	BatchSize  int
	// Strategy supplies the on-device start model (Algorithm 1 lines
	// 4–7): the client calls its InitLocal on a device-local view of the
	// downloaded edge model and the carried local model. It must be the
	// strategy the edges select with. Nil starts every round from the
	// downloaded edge model.
	Strategy hfl.Strategy
	// Seed derives each device's batch-sampling randomness; the stream
	// depends only on (Seed, round, deviceID).
	Seed int64
	// Timeout bounds network operations (default 30 s).
	Timeout time.Duration
	// MaxRetries is how many times Connect (and the automatic reconnect
	// after a non-deliberate connection loss) retries the dial+register
	// handshake (default 3).
	MaxRetries int
	// RetryBase is the base retry backoff, grown exponentially with
	// deterministic jitter (default 50 ms).
	RetryBase time.Duration
	// Faults, when set, injects faults on the client's device→edge links
	// (link id: the first hosted device's id).
	Faults *FaultInjector
	// Failover lists alternate edges a device may re-home to on its own
	// when its current edge becomes unreachable (the automatic reconnect
	// exhausts its retries). Candidates are tried in order, skipping the
	// failed edge; the re-home registration carries the device's own warm
	// state. Nil (the default) leaves a device whose edge died detached
	// until the next Connect call.
	Failover []EdgeAddr
	// Logf, when set, receives progress lines (default: discarded).
	Logf func(format string, args ...any)
	// Obs, when set, receives per-message byte/latency metrics
	// (fednet_* series). Nil disables metrics at near-zero cost.
	Obs *obs.Registry
	// Trace, when set, records a span per local-training round parented
	// on the edge's RPC span (TrainRequest.Span). Nil disables tracing.
	Trace *obs.Trace
}

// DeviceMux is the device client. Connect attaches one of its devices to
// an edge (detaching it from its previous edge — that is the "move"),
// after which the client serves that device's training requests until it
// moves again or the client is disconnected. Training requests arriving on
// any connection are handled sequentially per connection and serialised
// across connections by trainMu.
type DeviceMux struct {
	cfg     DeviceMuxConfig
	compute hfl.Trainer // the one shared network and optimizer
	m       deviceMetrics

	trainMu sync.Mutex // one shared model instance: training serialises

	mu     sync.Mutex
	closed bool
	virts  map[int]*virtualDevice
	conns  map[int]*muxClientConn // by edge id

	// Background reconnects belong to the client: Disconnect closes stop
	// to cut their backoff short and waits for them on bg.
	stop chan struct{}
	bg   sync.WaitGroup
}

// virtualDevice is one hosted device's private state.
type virtualDevice struct {
	id      int
	indices []int
	// edge is the edge the device is attached to or on its way to (−1
	// when detached); live says its registration there was acknowledged
	// on a connection that is still up.
	edge int
	live bool
	// gen is bumped by every deliberate attachment change (Connect,
	// Disconnect). A registration or reconnect that finds it changed was
	// superseded and gives the device up instead of installing it.
	gen int
	carried
	// spare is the device's second model vector: a training takes it and
	// writes its result there, and only that training ever sees it. pins
	// counts the trainings from request to reply Write, which read carried
	// models outside mx.mu (DESIGN.md, "Who owns a vector").
	spare []float64
	pins  int
	// kept is the optimizer state the device exported after its last
	// training, when that request asked for it (WantMoments), in storage
	// of its own: its first training after a warm arrival at another edge
	// imports it. Siblings share the optimizer and reset it, so it never
	// aliases the optimizer's buffers.
	kept keptMoments
}

// keptMoments is one exported optimizer state (optim.MomentExporter).
type keptMoments struct {
	flat  []float64
	lens  []int
	steps int
}

// carry replaces the carried model on behalf of a pinned training, under
// mx.mu. The old vector is the next spare if no other training can see it.
func (v *virtualDevice) carry(next []float64) {
	if v.pins == 1 && v.local != nil {
		v.spare = v.local
	}
	v.local = next
}

// carried is the state a device takes with it from round to round and
// from edge to edge.
type carried struct {
	local       []float64 // carried local model (nil until first training)
	prevEdge    int       // edge it last trained under (−1 if none)
	rounds      int       // training rounds served (diagnostics)
	lastUtil    float64   // Oort utility of the most recent round
	lastTrained int       // round it last trained in (−1 if none)
}

// rider is a device together with the generation an attachment attempt
// was started for.
type rider struct {
	v   *virtualDevice
	gen int
}

// muxClientConn is the client end of one edge attachment.
type muxClientConn struct {
	edgeID int
	addr   string
	conn   net.Conn
	wmu    sync.Mutex // serialises frames onto the connection
	// regMu serialises what changes who rides the connection —
	// registrations (frame to ack, so acks need no tag) and leaves — so a
	// leave can never overtake a newer registration of the same device.
	regMu sync.Mutex
	acks  chan struct{} // one per MsgRegisterAck
	done  chan struct{}
}

// deviceView is the hfl.View a device hands to Strategy.InitLocal. A
// device knows two models — the edge model it just downloaded and the
// local model it carried here — and nothing else about the system:
// every other accessor returns its zero value.
type deviceView struct{ edge, local []float64 }

func (v deviceView) EdgeModel(int) []float64  { return v.edge }
func (v deviceView) LocalModel(int) []float64 { return v.local }
func (deviceView) Step() int                  { return 0 }
func (deviceView) CloudModel() []float64      { return nil }
func (deviceView) DataSize(int) int           { return 0 }
func (deviceView) StatUtility(int) float64    { return 0 }
func (deviceView) LastTrained(int) int        { return 0 }

var errMuxClosed = errors.New("fednet: device client is shut down")

// vecBuf is a reusable vector; payloadPool recycles the ones train
// requests are decoded into between the device clients of a process, so
// their number follows the requests being served, not the connections.
type vecBuf struct{ v []float64 }

var payloadPool = sync.Pool{New: func() any { return new(vecBuf) }}

// NewDeviceMux builds a device client (not yet attached anywhere; use
// Connect per hosted device).
func NewDeviceMux(cfg DeviceMuxConfig) (*DeviceMux, error) {
	if cfg.Dataset == nil || len(cfg.Devices) == 0 || cfg.Factory == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("fednet: incomplete device client config (%d devices)", len(cfg.Devices))
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
	cfg.MaxRetries, cfg.RetryBase = retryPolicy(cfg.MaxRetries, cfg.RetryBase)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	mx := &DeviceMux{
		cfg:     cfg,
		compute: hfl.Trainer{Net: cfg.Factory(tensor.Split(cfg.Seed, int64(1000+cfg.Devices[0].DeviceID))), Opt: cfg.Optimizer},
		m:       newDeviceMetrics(cfg.Obs),
		virts:   map[int]*virtualDevice{},
		conns:   map[int]*muxClientConn{},
		stop:    make(chan struct{}),
	}
	for _, d := range cfg.Devices {
		if len(d.Indices) == 0 {
			return nil, fmt.Errorf("fednet: device %d has no data", d.DeviceID)
		}
		cfg.Trace.SetProcessName(tracePidDeviceBase+d.DeviceID, fmt.Sprintf("device%d", d.DeviceID))
		mx.virts[d.DeviceID] = &virtualDevice{id: d.DeviceID, indices: d.Indices, edge: -1,
			carried: carried{prevEdge: -1, lastTrained: -1}}
	}
	return mx, nil
}

// Connect attaches one hosted device to the edge at addr (identified by
// edgeID for the moved predicate), withdrawing it from its previous edge
// first: a leave notice when siblings still ride that connection, a close
// when it was the last. The client dials the new edge only if it has no
// connection there yet — N devices per edge cost one socket and one
// goroutine, not N. The dial+register handshake is acknowledged by the
// edge, so a registration lost to a fault is detected, and retried with
// capped backoff. A connection that later fails for any reason other than
// Disconnect or a newer Connect is re-established by the client itself.
func (mx *DeviceMux) Connect(deviceID, edgeID int, addr string) error {
	return mx.connect(deviceID, edgeID, addr, false)
}

// ConnectRehome is Connect with a warm registration: the device carries
// its own local model, utility and last training round, so the new edge
// resumes it warm. It is how a device arrives after a move with live
// migration and after its edge died; nothing passes between the edges.
func (mx *DeviceMux) ConnectRehome(deviceID, edgeID int, addr string) error {
	return mx.connect(deviceID, edgeID, addr, true)
}

func (mx *DeviceMux) connect(deviceID, edgeID int, addr string, rehome bool) error {
	mx.mu.Lock()
	v := mx.virts[deviceID]
	switch {
	case mx.closed:
		mx.mu.Unlock()
		return errMuxClosed
	case v == nil:
		mx.mu.Unlock()
		return fmt.Errorf("fednet: unknown device %d", deviceID)
	case v.edge == edgeID && v.live:
		mx.mu.Unlock()
		return nil
	}
	v.gen++
	var old *muxClientConn
	if v.edge != edgeID {
		old = mx.conns[v.edge]
	}
	// Detached from here on: if the attach below fails, a later Connect
	// back to the old edge must register again, not report success.
	v.edge, v.live = edgeID, false
	r := rider{v, v.gen}
	mx.mu.Unlock()
	if old != nil {
		mx.leave(old, v)
	}
	return mx.attach(edgeID, addr, []rider{r}, rehome)
}

// write frames one message onto cc under its write lock and deadline.
func (mx *DeviceMux) write(cc *muxClientConn, t MsgType, header any, vec []float64) error {
	return mx.m.link.writeShared(&cc.wmu, cc.conn, mx.cfg.Timeout, t, header, vec)
}

// ridersLocked counts the devices attached to or heading for edgeID
// (only the acknowledged ones with liveOnly). mx.mu must be held.
func (mx *DeviceMux) ridersLocked(edgeID int, liveOnly bool) int {
	n := 0
	for _, v := range mx.virts {
		if v.edge == edgeID && (v.live || !liveOnly) {
			n++
		}
	}
	return n
}

// leave withdraws v, which has moved on, from cc: the connection is
// closed when v was its last device and told MsgDeviceLeave otherwise.
func (mx *DeviceMux) leave(cc *muxClientConn, v *virtualDevice) {
	cc.regMu.Lock()
	mx.mu.Lock()
	back := v.edge == cc.edgeID // a newer Connect brought it back: that registration stands
	last := !back && mx.ridersLocked(cc.edgeID, false) == 0
	if last && mx.conns[cc.edgeID] == cc {
		delete(mx.conns, cc.edgeID) // a sibling heading there from now on dials afresh
	}
	mx.mu.Unlock()
	switch {
	case back:
	case last:
		mx.detach(cc)
	default:
		if err := mx.write(cc, MsgDeviceLeave, DeviceLeave{DeviceID: v.id}, nil); err != nil {
			mx.lost(cc)
		}
	}
	cc.regMu.Unlock()
	if last {
		<-cc.done // wait for the serve loop to exit
	}
}

// attach registers the riders at edgeID, dialing it first unless the
// client already has a connection there, and retries the handshake with
// capped backoff. Riders whose generation went stale — a Connect or
// Disconnect superseded this attempt — are skipped; with none left there
// is nothing to do. A re-home registration takes exactly one rider.
func (mx *DeviceMux) attach(edgeID int, addr string, riders []rider, rehome bool) error {
	var err error
	for attempt := 0; attempt <= mx.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			mx.m.retries.Inc()
			select {
			case <-time.After(retryBackoff(mx.cfg.RetryBase, attempt, mx.cfg.Seed,
				int64(riders[0].v.id)*1_000_003+int64(edgeID))):
			case <-mx.stop:
			}
		}
		mx.mu.Lock()
		current := 0
		for _, r := range riders {
			if r.v.gen == r.gen {
				r.v.edge = edgeID
				current++
			}
		}
		closed, cc := mx.closed, mx.conns[edgeID]
		mx.mu.Unlock()
		if closed {
			return errMuxClosed
		}
		if current == 0 {
			return nil
		}
		if cc == nil {
			if cc, err = mx.dial(edgeID, addr); err != nil {
				continue
			}
		}
		if err = mx.register(cc, riders, rehome); err == nil {
			return nil
		}
	}
	mx.mu.Lock()
	for _, r := range riders {
		if r.v.gen == r.gen {
			r.v.edge = -1
		}
	}
	mx.mu.Unlock()
	return err
}

// dial opens the client's connection to an edge and starts its serve
// loop. When a concurrent attach got there first the fresh socket is
// discarded and that connection shared.
func (mx *DeviceMux) dial(edgeID int, addr string) (*muxClientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: device client dialing edge %d: %w", edgeID, err)
	}
	cc := &muxClientConn{
		edgeID: edgeID, addr: addr,
		conn: mx.cfg.Faults.WrapDeviceLink(conn, mx.cfg.Devices[0].DeviceID),
		acks: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	mx.mu.Lock()
	other := mx.conns[edgeID]
	if other == nil && !mx.closed {
		mx.conns[edgeID] = cc
	}
	closed := mx.closed
	mx.mu.Unlock()
	switch {
	case closed:
		conn.Close()
		return nil, errMuxClosed
	case other != nil:
		conn.Close()
		return other, nil
	}
	go mx.serveConn(cc)
	return cc, nil
}

// register announces the still-current riders on cc in one frame and
// waits for the edge's ack, delivered by the serve loop. Afterwards the
// acknowledged riders are live; a rider superseded meanwhile is withdrawn
// again, and a connection left without any device is closed.
func (mx *DeviceMux) register(cc *muxClientConn, riders []rider, rehome bool) error {
	cc.regMu.Lock()
	defer cc.regMu.Unlock()
	var reg RegisterMux
	var payload []float64
	mx.mu.Lock()
	for _, r := range riders {
		v := r.v
		if v.gen != r.gen {
			continue
		}
		rd := RegisterDevice{DeviceID: v.id, DataSize: len(v.indices), PrevEdge: v.prevEdge}
		if rehome {
			rd.Rehome = true
			if !math.IsNaN(v.lastUtil) && !math.IsInf(v.lastUtil, 0) {
				rd.Utility = v.lastUtil
			}
			rd.LastTrained = v.lastTrained
			payload = append([]float64(nil), v.local...) // a training rewrites the vector once it is the spare
		}
		reg.Devices = append(reg.Devices, rd)
	}
	mx.mu.Unlock()

	var err error
	if len(reg.Devices) > 0 {
		select {
		case <-cc.acks: // the late ack of a registration that gave up
		default:
		}
		if err = mx.write(cc, MsgRegisterMux, reg, payload); err != nil {
			mx.lost(cc)
			return fmt.Errorf("fednet: device %d registering at edge %d: %w", reg.Devices[0].DeviceID, cc.edgeID, err)
		}
		timer := time.NewTimer(mx.cfg.Timeout)
		defer timer.Stop()
		select {
		case <-cc.acks:
		case <-cc.done:
			err = fmt.Errorf("fednet: edge %d connection lost during registration", cc.edgeID)
		case <-timer.C:
			err = fmt.Errorf("fednet: edge %d registration ack timed out", cc.edgeID)
		}
	}

	var gone []int
	mx.mu.Lock()
	for _, r := range riders {
		switch {
		case err != nil:
		case r.v.gen == r.gen:
			r.v.live = true
		case r.v.edge != cc.edgeID:
			gone = append(gone, r.v.id)
		}
	}
	// After a failed registration only acknowledged devices hold the
	// connection: without any the next attempt dials afresh.
	idle := mx.ridersLocked(cc.edgeID, err != nil) == 0
	mx.mu.Unlock()
	if idle {
		mx.detach(cc)
		return err
	}
	for _, id := range gone {
		if werr := mx.write(cc, MsgDeviceLeave, DeviceLeave{DeviceID: id}, nil); werr != nil {
			mx.lost(cc)
			break
		}
	}
	return err
}

// detach closes cc and forgets it; the devices that were live on it are
// marked down and returned.
func (mx *DeviceMux) detach(cc *muxClientConn) []rider {
	cc.conn.Close()
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.conns[cc.edgeID] != cc {
		return nil // already replaced or dropped
	}
	delete(mx.conns, cc.edgeID)
	var riders []rider
	for _, d := range mx.cfg.Devices {
		if v := mx.virts[d.DeviceID]; v.edge == cc.edgeID && v.live {
			v.live = false
			riders = append(riders, rider{v, v.gen})
		}
	}
	return riders
}

// lost handles a connection that failed for any reason other than a
// deliberate detach: the client takes over the teardown and re-attaches
// the devices that rode it to the same edge in the background, resyncing
// state through the registration ack. If the edge stays unreachable after
// the retries it is presumed dead and the devices fail over.
func (mx *DeviceMux) lost(cc *muxClientConn) {
	riders := mx.detach(cc)
	mx.mu.Lock()
	start := len(riders) > 0 && !mx.closed
	if start {
		mx.bg.Add(1)
	}
	mx.mu.Unlock()
	if !start {
		return
	}
	go func() {
		defer mx.bg.Done()
		if err := mx.attach(cc.edgeID, cc.addr, riders, false); err != nil {
			mx.failover(cc.edgeID, riders)
			return
		}
		mx.mu.Lock()
		for _, r := range riders {
			if r.v.gen == r.gen && r.v.live {
				mx.m.reconnects.Inc() // the edge deregistered it with the lost connection
			}
		}
		mx.mu.Unlock()
	}()
}

// failover re-homes each rider to the first reachable alternate edge
// after the automatic reconnect to deadEdge gave up. Candidates are tried
// in configured order, skipping the dead edge; every attempt re-checks the
// generation so a deliberate Connect/Disconnect always wins over
// self-healing. With no reachable candidate (or an empty Failover list)
// the device stays detached until the next Connect.
func (mx *DeviceMux) failover(deadEdge int, riders []rider) {
	if len(mx.cfg.Failover) == 0 {
		return
	}
riders:
	for _, r := range riders {
		for _, alt := range mx.cfg.Failover {
			mx.mu.Lock()
			stale := mx.closed || r.v.gen != r.gen
			mx.mu.Unlock()
			if stale {
				continue riders
			}
			if alt.ID != deadEdge && mx.attach(alt.ID, alt.Addr, []rider{r}, true) == nil {
				mx.m.rehomed.Inc()
				mx.cfg.Logf("device %d: failed over from edge %d to edge %d", r.v.id, deadEdge, alt.ID)
				continue riders
			}
		}
		mx.cfg.Logf("device %d: stranded — edge %d down and no failover candidate reachable", r.v.id, deadEdge)
	}
}

// serveConn handles one edge connection until it closes: train requests
// addressed to any hosted device, plus registration acks. A corrupted
// stream (ErrCorruptFrame) ends it like any other failure, so poisoned
// payloads are re-requested after the resync rather than aggregated.
func (mx *DeviceMux) serveConn(cc *muxClientConn) {
	defer close(cc.done)
	// A payload is decoded into a pooled vector that goes back when its
	// frame has been handled: training is synchronous inside the loop and
	// keeps nothing of the payload (InitLocal blends it or hands it on as
	// is, LocalRound copies that into the network before anything is
	// released). A connection waiting for its next request holds none.
	var held *vecBuf
	payloadBuf := func(n int) []float64 {
		held = payloadPool.Get().(*vecBuf)
		if cap(held.v) < n {
			held.v = make([]float64, n)
		}
		return held.v[:n]
	}
	release := func() {
		if held != nil && 8*cap(held.v) <= maxPooledFrame {
			payloadPool.Put(held)
		}
		held = nil
	}
	defer release()
	for {
		var h TrainRequest
		release()
		t, payload, err := mx.m.link.readMsgInto(cc.conn, &h, payloadBuf)
		if err != nil {
			mx.lost(cc)
			return
		}
		switch t {
		case MsgShutdown:
			mx.detach(cc)
			return
		case MsgRegisterAck:
			select {
			case cc.acks <- struct{}{}:
			default:
			}
			continue
		case MsgTrainRequest:
		default:
			mx.lost(cc)
			return
		}
		trainTok := mx.m.trainSpan.Begin()
		vec, reply, terr := mx.train(h, payload, cc.edgeID)
		trainTok.End()
		release() // before the reply write can block
		if terr != nil {
			// A frame whose state is inconsistent (e.g. a moved-blend
			// length mismatch) is as untrustworthy as a corrupt one: tear
			// the stream down so every rider resyncs via re-registration
			// rather than train from a stale model.
			mx.m.link.corrupt.Inc()
		} else {
			terr = mx.write(cc, MsgTrainReply, reply, vec)
		}
		mx.unpin(h.DeviceID) // train's pin, on every path once nothing reads vec
		if terr != nil {
			mx.lost(cc)
			return
		}
	}
}

// unpin ends the pin train took on a hosted device (virtualDevice.pins). A
// caller that never does costs the device its recycling, not its safety.
func (mx *DeviceMux) unpin(id int) {
	mx.mu.Lock()
	if v := mx.virts[id]; v != nil {
		v.pins--
	}
	mx.mu.Unlock()
}

// train serves one device's training request — Algorithm 1 lines 4–8:
// honour ResetLocal, build the start model with Strategy.InitLocal, run
// the local round on the shared compute state and store the result as
// the new carried model, in the device's spare vector when it has one (a
// known device stays pinned until unpin). Under the training lock the request is
// stateless towards its siblings: a moved device that keeps its carried
// model (Moved without ResetLocal: its first training after a warm arrival
// at another edge) imports the optimizer state it kept, any other training
// resets the optimizer, and the state is exported into the device's
// keeping again when the edge asks. The batch-sampling stream depends only
// on (seed, round, id). A non-nil error rejects the request's state as
// corrupt — the caller must tear the connection down and resync.
func (mx *DeviceMux) train(req TrainRequest, payload []float64, edgeID int) ([]float64, TrainReply, error) {
	tr := mx.cfg.Trace
	trainStart := tr.Now()
	id := req.DeviceID
	mx.mu.Lock()
	v := mx.virts[id]
	var local, vec []float64
	var kept keptMoments
	if v != nil {
		v.pins++
		vec, v.spare = v.spare, nil
		if req.ResetLocal {
			v.carry(nil)
		}
		local = v.local // not written while carried or while a reader is pinned
		kept = v.kept
	}
	mx.mu.Unlock()
	if v == nil {
		// Unknown device (a move raced the request): an empty reply lets
		// the edge's retry loop resolve it without stalling.
		return nil, TrainReply{DeviceID: id, Round: req.Round}, nil
	}
	moved := req.Moved && local != nil
	if moved && len(local) != len(payload) {
		// A moved device whose carried model cannot blend with the edge
		// model is in an inconsistent state; silently training from the
		// stale frame would feed a wrong-era model into Eq. 6.
		return nil, TrainReply{}, fmt.Errorf("fednet: device %d: moved-blend length mismatch (local %d, edge %d)",
			id, len(local), len(payload))
	}
	start := payload
	if mx.cfg.Strategy != nil {
		start = mx.cfg.Strategy.InitLocal(deviceView{edge: payload, local: local}, id, edgeID, moved)
	}
	if len(vec) != len(start) {
		vec = make([]float64, len(start))
	}
	reply := TrainReply{DeviceID: id, Round: req.Round, DataSize: len(v.indices)}
	rng := tensor.Split(mx.cfg.Seed, int64(req.Round)*100_003+int64(id)*13+5)

	mx.trainMu.Lock()
	me, _ := mx.compute.Opt.(optim.MomentExporter)
	// ImportMoments copies, so kept stays the device's own.
	resumed := moved && me != nil && kept.steps > 0 && me.ImportMoments(kept.flat, kept.lens, kept.steps)
	fp := flight.BeginPhase("local_train")
	util, skipped := mx.compute.LocalRound(mx.cfg.Dataset, v.indices, mx.cfg.LocalSteps, mx.cfg.BatchSize, rng, start, vec, resumed)
	fp.End()
	kept = keptMoments{}
	if req.WantMoments && me != nil {
		if flat, lens, steps := me.ExportMoments(); len(flat) > 0 {
			kept = keptMoments{flat, lens, steps}
		}
	}
	mx.trainMu.Unlock()
	mx.m.nonfinite.Add(int64(skipped))
	reply.Utility = util

	mx.mu.Lock()
	v.carry(vec)
	v.kept = kept
	v.prevEdge, v.lastUtil, v.lastTrained = edgeID, util, req.Round
	v.rounds++
	mx.mu.Unlock()
	if tr != nil {
		spanID := ""
		if req.Span != "" { // untraced edges leave Span empty
			spanID = req.Span + ".t"
		}
		tr.Complete("device_train", "fednet", tracePidDeviceBase+id, 0,
			trainStart, tr.Now().Sub(trainStart), spanID, req.Span,
			map[string]any{"round": req.Round, "moved": req.Moved, "resume": resumed})
	}
	return vec, reply, nil
}

// Disconnect shuts the client down: it detaches from every edge and
// waits for the serve loops. Safe to call when nothing is connected.
func (mx *DeviceMux) Disconnect() {
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return
	}
	mx.closed = true
	conns := mx.conns
	mx.conns = map[int]*muxClientConn{}
	for _, v := range mx.virts {
		v.edge, v.live = -1, false
		v.gen++ // invalidate any in-flight reconnect attempt
	}
	mx.mu.Unlock()
	close(mx.stop)
	for _, cc := range conns {
		cc.conn.Close()
		<-cc.done
	}
	mx.bg.Wait()
}

// Connected reports whether a hosted device currently has a live edge
// attachment (stranded-device accounting for daemons and tests).
func (mx *DeviceMux) Connected(id int) bool {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	v := mx.virts[id]
	return v != nil && v.live
}

// DeviceRounds returns how many rounds one hosted device trained.
func (mx *DeviceMux) DeviceRounds(id int) int {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if v := mx.virts[id]; v != nil {
		return v.rounds
	}
	return 0
}

// LocalModel returns a copy of one hosted device's carried local model
// (nil before it ever trained).
func (mx *DeviceMux) LocalModel(id int) []float64 {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if v := mx.virts[id]; v != nil && v.local != nil {
		return append([]float64(nil), v.local...)
	}
	return nil
}
