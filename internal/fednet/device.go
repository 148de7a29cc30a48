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
	"middle/internal/obs/flight"
	"middle/internal/optim"
	"middle/internal/tensor"
)

// DeviceConfig configures one device client.
type DeviceConfig struct {
	DeviceID int
	// Dataset + Indices define the device's local shard.
	Dataset *data.Dataset
	Indices []int
	// Factory builds the task architecture; the device owns one instance.
	Factory func(rng *tensor.RNG) *nn.Network
	// Optimizer spec for local training.
	Optimizer optim.Optimizer
	// LocalSteps (I) and BatchSize per training round.
	LocalSteps int
	BatchSize  int
	// Strategy supplies the on-device start model (Algorithm 1 lines
	// 4–7): the device calls its InitLocal on a device-local view of the
	// downloaded edge model and the carried local model. It must be the
	// strategy the edges select with. Nil starts every round from the
	// downloaded edge model.
	Strategy hfl.Strategy
	// Seed derives the device's batch-sampling randomness.
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
	// Faults, when set, injects faults on the device→edge link.
	Faults *FaultInjector
	// Failover lists alternate edges the device may re-home to on its
	// own when its current edge becomes unreachable (the automatic
	// reconnect exhausts its retries). Candidates are tried in order,
	// skipping the failed edge; the re-home registration carries the
	// device's own warm state (Rehome). Nil (the default) keeps the old
	// behaviour: a device whose edge died stays down until the next
	// Connect call.
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

// EdgeAddr names one failover candidate.
type EdgeAddr struct {
	ID   int
	Addr string
}

// Device is a mobile client. Connect attaches it to an edge (closing any
// previous attachment — that is the "move"), after which it serves
// training requests until disconnected or shut down.
type Device struct {
	cfg DeviceConfig
	lt  localTrainer
	m   deviceMetrics

	mu      sync.Mutex
	conn    net.Conn
	carried // guarded by mu
	done    chan struct{}
	// gen is bumped by every deliberate attachment change (Connect,
	// Disconnect, accepted reconnect). A serve loop whose generation is
	// stale knows its connection was replaced on purpose and must not
	// auto-reconnect; a reconnect attempt whose generation is stale
	// discards its dialed connection instead of installing it.
	gen int
	// edgeSync is the edge round counter from the last registration ack
	// (resync diagnostics).
	edgeSync int
	// lastSync is the cloud-sync round the device last observed (from the
	// registration ack). A warm re-home registration carries it next to
	// the carried state: a new edge honours lastTrained only when lastSync
	// matches its own — same era rule as handover.
	lastSync int
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

// localTrainer is the compute half of a training client — one network
// and optimizer plus the round parameters — shared by Device and
// DeviceMux, which differ only in whose lock guards the carried state
// and in optimizer-moment export/import.
type localTrainer struct {
	hfl.Trainer
	strategy   hfl.Strategy
	dataset    *data.Dataset
	localSteps int
	batchSize  int
	seed       int64
	nonfinite  *obs.Counter
}

// round executes Algorithm 1 lines 4–8 for one device against its
// carried state st (guarded by mu): honour ResetLocal, build the start
// model with Strategy.InitLocal, run the local round and store the
// result as the new carried model. The batch-sampling stream depends
// only on (seed, round, id), so a virtual device trains bit-identically
// to a dedicated one given the same start model. A non-nil error
// rejects the request's state as corrupt — the caller must tear the
// connection down and resync.
func (lt *localTrainer) round(mu *sync.Mutex, st *carried, id int, indices []int,
	req TrainRequest, edgeModel []float64, edgeID int, resume bool) ([]float64, float64, error) {
	mu.Lock()
	if req.ResetLocal {
		st.local = nil
	}
	local := st.local // replaced wholesale, never written in place
	mu.Unlock()
	moved := req.Moved && local != nil
	if moved && len(local) != len(edgeModel) {
		// A moved device whose carried model cannot blend with the edge
		// model is in an inconsistent state; silently training from the
		// stale frame would feed a wrong-era model into Eq. 6.
		return nil, 0, fmt.Errorf("fednet: device %d: moved-blend length mismatch (local %d, edge %d)",
			id, len(local), len(edgeModel))
	}
	start := edgeModel
	if lt.strategy != nil {
		start = lt.strategy.InitLocal(deviceView{edge: edgeModel, local: local}, id, edgeID, moved)
	}
	fp := flight.BeginPhase("local_train")
	vec := make([]float64, len(start))
	rng := tensor.Split(lt.seed, int64(req.Round)*100_003+int64(id)*13+5)
	util, skipped := lt.LocalRound(lt.dataset, indices, lt.localSteps, lt.batchSize, rng, start, vec, resume)
	fp.End()
	lt.nonfinite.Add(int64(skipped))

	mu.Lock()
	st.local = vec
	st.prevEdge = edgeID
	st.rounds++
	st.lastUtil = util
	st.lastTrained = req.Round
	mu.Unlock()
	return vec, util, nil
}

// NewDevice builds a device client.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.Dataset == nil || len(cfg.Indices) == 0 || cfg.Factory == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("fednet: incomplete device config for device %d", cfg.DeviceID)
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
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Trace.SetProcessName(tracePidDeviceBase+cfg.DeviceID, fmt.Sprintf("device%d", cfg.DeviceID))
	m := newDeviceMetrics(cfg.Obs)
	return &Device{
		cfg: cfg,
		lt: localTrainer{
			Trainer:  hfl.Trainer{Net: cfg.Factory(tensor.Split(cfg.Seed, int64(1000+cfg.DeviceID))), Opt: cfg.Optimizer},
			strategy: cfg.Strategy, dataset: cfg.Dataset,
			localSteps: cfg.LocalSteps, batchSize: cfg.BatchSize,
			seed: cfg.Seed, nonfinite: m.nonfinite,
		},
		m:       m,
		carried: carried{prevEdge: -1, lastTrained: -1},
	}, nil
}

// Connect attaches the device to the edge at addr (identified by edgeID
// for the moved predicate), detaching from any previous edge first. The
// dial+register handshake — now acknowledged by the edge, so a
// registration lost to a fault is detected — is retried with capped
// backoff. The device then serves training requests in a background
// goroutine and reconnects by itself if the connection later fails for
// any reason other than Disconnect or a newer Connect.
func (d *Device) Connect(edgeID int, addr string) error {
	d.Disconnect()
	d.mu.Lock()
	d.gen++
	gen := d.gen
	d.mu.Unlock()
	return d.dialAndServe(edgeID, addr, gen, false)
}

// ConnectRehome is Connect with a warm re-home registration: the device
// announces that its previous edge is gone and carries its own local
// model, utility, and round bookkeeping so the new edge resumes it warm.
// It is the failover counterpart of a live MsgMigrate handover, which a
// dead source edge can no longer push.
func (d *Device) ConnectRehome(edgeID int, addr string) error {
	d.Disconnect()
	d.mu.Lock()
	d.gen++
	gen := d.gen
	d.mu.Unlock()
	return d.dialAndServe(edgeID, addr, gen, true)
}

// dialAndServe performs the dial+register+ack handshake with retries
// and, on success, installs the connection (unless gen went stale — a
// Connect/Disconnect superseded this attempt) and starts the serve loop.
// With rehome set the registration carries the device's warm state.
func (d *Device) dialAndServe(edgeID int, addr string, gen int, rehome bool) error {
	var lastErr error
	for attempt := 0; attempt <= d.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			d.m.retries.Inc()
			time.Sleep(retryBackoff(d.cfg.RetryBase, attempt, d.cfg.Seed,
				int64(d.cfg.DeviceID)*1_000_003+int64(edgeID)))
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = fmt.Errorf("fednet: device %d dialing edge %d: %w", d.cfg.DeviceID, edgeID, err)
			continue
		}
		conn = d.cfg.Faults.WrapDeviceLink(conn, d.cfg.DeviceID)
		conn.SetDeadline(time.Now().Add(d.cfg.Timeout))
		d.mu.Lock()
		reg := RegisterDevice{DeviceID: d.cfg.DeviceID, DataSize: len(d.cfg.Indices), PrevEdge: d.prevEdge}
		var payload []float64
		if rehome {
			reg.Rehome = true
			if !math.IsNaN(d.lastUtil) && !math.IsInf(d.lastUtil, 0) {
				reg.Utility = d.lastUtil
			}
			reg.LastTrained = d.lastTrained
			reg.LastSync = d.lastSync
			if d.local != nil {
				payload = append([]float64(nil), d.local...)
			}
		}
		d.mu.Unlock()
		if err := d.m.link.writeMsg(conn, MsgRegisterDevice, reg, payload); err != nil {
			conn.Close()
			lastErr = fmt.Errorf("fednet: device %d registering at edge %d: %w", d.cfg.DeviceID, edgeID, err)
			continue
		}
		var ack RegisterAck
		t, _, err := d.m.link.readMsg(conn, &ack)
		if err != nil || t != MsgRegisterAck {
			conn.Close()
			lastErr = fmt.Errorf("fednet: device %d awaiting register ack from edge %d: type %d, %v", d.cfg.DeviceID, edgeID, t, err)
			continue
		}
		conn.SetDeadline(time.Time{})
		d.mu.Lock()
		if d.gen != gen {
			d.mu.Unlock()
			conn.Close()
			return nil // superseded by a newer Connect/Disconnect
		}
		d.conn = conn
		d.done = make(chan struct{})
		d.edgeSync = ack.Round
		d.lastSync = ack.LastSync
		done := d.done
		d.mu.Unlock()
		go d.serve(conn, edgeID, addr, done, gen)
		return nil
	}
	return lastErr
}

// Disconnect detaches from the current edge (a "move away"); it is safe
// to call when not connected.
func (d *Device) Disconnect() {
	d.mu.Lock()
	conn, done := d.conn, d.done
	d.conn, d.done = nil, nil
	d.gen++ // invalidate any in-flight reconnect attempt
	d.mu.Unlock()
	if conn != nil {
		conn.Close()
		<-done // wait for the serve loop to exit
	}
}

// maybeReconnect is called by a serve loop whose connection failed. If
// the failure was deliberate (Disconnect or a newer Connect already
// replaced the attachment) it does nothing; otherwise it takes over the
// teardown and re-attaches to the same edge in the background.
func (d *Device) maybeReconnect(conn net.Conn, edgeID int, addr string, gen int) {
	d.mu.Lock()
	if d.gen != gen || d.conn != conn {
		d.mu.Unlock()
		return
	}
	d.conn, d.done = nil, nil
	d.gen++
	newGen := d.gen
	d.mu.Unlock()
	go func() {
		if err := d.dialAndServe(edgeID, addr, newGen, false); err != nil {
			// The edge is unreachable even after retries — presume it dead
			// and self-heal by re-homing to a failover candidate.
			d.failover(edgeID, newGen)
		}
	}()
}

// failover re-homes the device to the first reachable alternate edge
// after the automatic reconnect to its current edge gave up. Candidates
// are tried in configured order, skipping the dead edge; each attempt
// re-checks the generation so a deliberate Connect/Disconnect always
// wins over self-healing. With no reachable candidate (or an empty
// Failover list) the device stays stranded until the next Connect.
func (d *Device) failover(deadEdge, gen int) {
	for _, alt := range d.cfg.Failover {
		if alt.ID == deadEdge {
			continue
		}
		d.mu.Lock()
		stale := d.gen != gen
		d.mu.Unlock()
		if stale {
			return
		}
		if err := d.dialAndServe(alt.ID, alt.Addr, gen, true); err == nil {
			d.cfg.Logf("device %d: failed over from edge %d to edge %d", d.cfg.DeviceID, deadEdge, alt.ID)
			return
		}
	}
	if len(d.cfg.Failover) > 0 {
		d.cfg.Logf("device %d: stranded — edge %d down and no failover candidate reachable", d.cfg.DeviceID, deadEdge)
	}
}

// Connected reports whether the device currently has a live edge
// attachment (stranded-device accounting for daemons and tests).
func (d *Device) Connected() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conn != nil
}

// Rounds returns how many training rounds the device has served.
func (d *Device) Rounds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rounds
}

// LocalModel returns a copy of the carried local model (nil before the
// device ever trained).
func (d *Device) LocalModel() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.local == nil {
		return nil
	}
	return append([]float64(nil), d.local...)
}

// serve handles requests on one connection until it closes. A failure
// that was not a deliberate detach (Disconnect / newer Connect) triggers
// an automatic reconnect to the same edge, resyncing state through the
// registration ack — a corrupted stream (ErrCorruptFrame) lands here
// too, so poisoned payloads are re-requested rather than aggregated.
func (d *Device) serve(conn net.Conn, edgeID int, addr string, done chan struct{}, gen int) {
	defer close(done)
	defer conn.Close()
	for {
		var req TrainRequest
		t, edgeModel, err := d.m.link.readMsg(conn, &req)
		if err != nil {
			d.maybeReconnect(conn, edgeID, addr, gen)
			return
		}
		switch t {
		case MsgShutdown:
			return
		case MsgTrainRequest:
		default:
			d.maybeReconnect(conn, edgeID, addr, gen)
			return
		}
		tr := d.cfg.Trace
		trainStart := tr.Now()
		trainTok := d.m.trainSpan.Begin()
		vec, reply, terr := d.train(req, edgeModel, edgeID)
		trainTok.End()
		if terr != nil {
			// A frame whose state is inconsistent (e.g. a moved-blend
			// length mismatch) is as untrustworthy as a corrupt one:
			// tear the stream down and resync via re-registration rather
			// than train from a stale model.
			d.m.link.corrupt.Inc()
			d.maybeReconnect(conn, edgeID, addr, gen)
			return
		}
		if tr != nil {
			spanID := ""
			if req.Span != "" { // untraced edges leave Span empty
				spanID = req.Span + ".t"
			}
			tr.Complete("device_train", "fednet", tracePidDeviceBase+d.cfg.DeviceID, 0,
				trainStart, tr.Now().Sub(trainStart), spanID, req.Span,
				map[string]any{"round": req.Round, "moved": req.Moved})
		}
		conn.SetDeadline(time.Now().Add(d.cfg.Timeout))
		if err := d.m.link.writeMsg(conn, MsgTrainReply, reply, vec); err != nil {
			d.maybeReconnect(conn, edgeID, addr, gen)
			return
		}
		conn.SetDeadline(time.Time{})
	}
}

// train serves one training request: import migrated optimizer moments
// when the request resumes a handover, run the local round on the
// carried state, and export the moments back when the edge asks. A
// non-nil error rejects the request's state as corrupt — the caller must
// tear the connection down and resync.
func (d *Device) train(req TrainRequest, payload []float64, edgeID int) ([]float64, TrainReply, error) {
	edgeModel, resumed := payload, false
	me, _ := d.cfg.Optimizer.(optim.MomentExporter)
	if req.Resume {
		// The payload carries migrated optimizer moments after the edge
		// model; import them so local training continues the source
		// edge's trajectory instead of restarting cold.
		model, moments, lens, steps := splitMoments(payload, req.MomentLens, req.OptSteps)
		if model == nil {
			return nil, TrainReply{}, fmt.Errorf("fednet: device %d: malformed resume payload (%d values)", d.cfg.DeviceID, len(payload))
		}
		edgeModel = model
		if me != nil {
			resumed = me.ImportMoments(moments, lens, steps)
		}
	}
	vec, util, err := d.lt.round(&d.mu, &d.carried, d.cfg.DeviceID, d.cfg.Indices, req, edgeModel, edgeID, resumed)
	if err != nil {
		return nil, TrainReply{}, err
	}
	reply := TrainReply{
		DeviceID: d.cfg.DeviceID,
		Round:    req.Round,
		DataSize: len(d.cfg.Indices),
		Utility:  util,
	}
	if req.WantMoments && me != nil {
		flat, lens, steps := me.ExportMoments()
		if len(flat) > 0 {
			vec = append(append(make([]float64, 0, len(vec)+len(flat)), vec...), flat...)
			reply.MomentLens = lens
			reply.OptSteps = steps
		}
	}
	return vec, reply, nil
}
