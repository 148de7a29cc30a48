package fednet

import (
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"middle/internal/checkpoint"
	"middle/internal/hfl"
	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// EdgeConfig configures one edge server.
type EdgeConfig struct {
	EdgeID    int
	CloudAddr string
	// Addr is the device-facing TCP listen address.
	Addr string
	// K devices are selected per round (paper §6.1.2: 5).
	K int
	// Strategy decides which connected devices train each round. The
	// edge adapts it through a View over its device-state cache.
	Strategy hfl.Strategy
	// Seed derives the per-round selection tie-break randomness.
	Seed int64
	// Timeout bounds network operations (default 30 s).
	Timeout time.Duration
	// Quorum is the minimum number of responders a round needs before
	// the edge aggregates Eq. 6 (default 1, clamped to ≤ K). Below
	// quorum the edge carries its previous model forward and reports
	// zero weight to the cloud.
	Quorum int
	// RoundDeadline bounds one round's device training; stragglers past
	// it are excluded from aggregation and their connections closed
	// (default Timeout).
	RoundDeadline time.Duration
	// MaxRetries is how many times a failed train RPC is retried against
	// a (possibly reconnected) device before the round gives up on it
	// (default 3).
	MaxRetries int
	// RetryBase is the base retry backoff; successive attempts grow it
	// exponentially, capped, with deterministic jitter (default 50 ms).
	RetryBase time.Duration
	// Faults, when set, injects faults on the edge→cloud link.
	Faults *FaultInjector
	// Aggregator selects the Eq. 6 combiner: "" or "mean" (the default
	// weighted mean) or "trimmed-mean" (see internal/robust).
	Aggregator robust.AggregatorKind
	// Validate screens received device models before Eq. 6: non-finite
	// models are rejected when enabled, and NormBound > 0 additionally
	// rejects updates beyond NormBound·median(norms) for the round.
	// Rejected updates are excluded exactly like stragglers.
	Validate robust.ValidatorConfig
	// SelectionNormCap, when > 0, caps the Eq. 12 selection score of
	// devices whose cached update norm exceeds it (see hfl.NormCapView).
	SelectionNormCap float64
	// LiveMigration asks every trained device to keep its optimizer state
	// (TrainRequest.WantMoments), so that a device moving on warm resumes
	// it at its next edge. Off by default: cold runs do not export moments.
	LiveMigration bool
	// CheckpointDir, when set, makes the edge persist its state (edge
	// model + round + Eq. 6 weight accumulator) after every round, and
	// NewEdge resume from the latest valid checkpoint found there.
	CheckpointDir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Obs, when set, receives per-message byte/latency metrics
	// (fednet_* series). Nil disables metrics at near-zero cost.
	Obs *obs.Registry
	// Trace, when set, records a span per round and per train RPC,
	// parented on the cloud's round span (RoundStart.Span) and passed
	// down to devices via TrainRequest.Span. Nil disables tracing.
	Trace *obs.Trace
}

// deviceState is the edge's cached knowledge about one connected device —
// exactly the information the paper allows selection to use (model
// vectors and participation history, never raw data).
type deviceState struct {
	// mux is the connection the device registered through; all I/O goes
	// through its write lock and demux reader.
	mux         *edgeMux
	id          int
	dataSize    int
	arrivedFrom int  // edge the device trained under before connecting here
	trainedHere bool // has it trained at this edge since arriving?
	// lastModel is the device's last model, in a vector the edge owns (a
	// train reply or a warm registration's payload); it returns to the
	// edge's free list when the device's next reply replaces it.
	lastModel   []float64
	statUtil    float64
	lastTrained int
	// refused marks a warm registration whose payload failed the receipt
	// screen: the device arrived cold.
	refused bool
}

// Edge runs the in-edge half of Algorithm 1 as a server: it accepts
// device connections, selects K of them each round, ships them the edge
// model, aggregates their replies (Eq. 6) and reports to the cloud.
type Edge struct {
	cfg     EdgeConfig
	ln      net.Listener
	m       edgeMetrics
	agg     *robust.Point // the Eq. 6 aggregate step
	resumed bool          // state restored from a checkpoint by NewEdge

	mu      sync.Mutex
	devices map[int]*deviceState

	// replies is the free list the demux readers decode train replies
	// into (see deviceState.lastModel).
	replies vecList

	// The fields below are guarded by mu: the Run loop writes them while
	// acceptLoop goroutines read them to build registration acks.
	edgeModel []float64
	// modelUsers counts the readers of edgeModel's buffer that run outside
	// mu — train RPCs in flight. spareModel is the
	// buffer of the edge model before this one if it had none left when it
	// was replaced (nil otherwise): the next aggregate or global model is
	// written into it, so the two swap from round to round.
	modelUsers int
	spareModel []float64
	cloudSeen  []float64 // last global model received (w_c for Eq. 12), in its own storage
	weight     float64   // d̂ accumulator since last sync
	lastSync   int       // round of the last cloud sync
	curRound   int       // round currently (or last) executed

	// Membership state: the incarnation epoch assigned by the cloud's
	// welcome (0 when the membership layer is disabled), the cloud
	// connection (so Stop/Kill can interrupt a blocked read) and the
	// graceful-stop flag. epoch and cloudConn are guarded by mu.
	epoch     int
	cloudConn net.Conn
	stopFlag  atomic.Bool
	killFlag  atomic.Bool
}

// Killed reports whether Kill tore this edge incarnation down; its Run
// error is then an expected casualty, not a run failure.
func (e *Edge) Killed() bool { return e.killFlag.Load() }

// Stop requests a graceful edge shutdown: the cloud connection is
// closed, making Run unblock, shut its devices down, write a final
// checkpoint and return nil instead of an error.
func (e *Edge) Stop() {
	e.stopFlag.Store(true)
	e.mu.Lock()
	conn := e.cloudConn
	e.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Kill tears the edge down abruptly — listener, cloud connection and
// every device connection — simulating a crashed edge process. Run
// returns an error; chaos tests use it to exercise failover.
func (e *Edge) Kill() {
	e.killFlag.Store(true)
	e.ln.Close()
	e.mu.Lock()
	conn := e.cloudConn
	conns := make([]net.Conn, 0, len(e.devices))
	for _, d := range e.devices {
		conns = append(conns, d.mux.conn)
	}
	e.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Epoch reports the membership epoch this edge incarnation was welcomed
// under (0 when the membership layer is disabled).
func (e *Edge) Epoch() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// NewEdge builds an edge server and starts its device listener.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.K < 1 || cfg.Strategy == nil {
		return nil, fmt.Errorf("fednet: implausible edge config %+v", cfg)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Quorum < 1 {
		cfg.Quorum = 1
	}
	if cfg.Quorum > cfg.K {
		cfg.Quorum = cfg.K
	}
	if cfg.RoundDeadline <= 0 {
		cfg.RoundDeadline = cfg.Timeout
	}
	cfg.MaxRetries, cfg.RetryBase = retryPolicy(cfg.MaxRetries, cfg.RetryBase)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: edge %d listen: %w", cfg.EdgeID, err)
	}
	cfg.Trace.SetProcessName(tracePidEdgeBase+cfg.EdgeID, fmt.Sprintf("edge%d", cfg.EdgeID))
	e := &Edge{
		cfg:     cfg,
		ln:      ln,
		m:       newEdgeMetrics(cfg.Obs),
		agg:     robust.NewPoint(cfg.Aggregator, cfg.Validate, cfg.Obs),
		replies: vecList{max: cfg.K},
		devices: map[int]*deviceState{},
	}
	if cfg.CheckpointDir != "" {
		st, ok, err := checkpoint.LoadLatestNamed(cfg.CheckpointDir, edgeCheckpointName(cfg.EdgeID))
		if err != nil {
			ln.Close()
			return nil, err
		}
		if ok {
			e.edgeModel = st.Model
			e.weight = st.EdgeWeights[cfg.EdgeID]
			e.curRound = st.Round
			// Conservative resume: treat the checkpointed round as the
			// last sync so reconnecting devices reset their carried local
			// models against the fresh state.
			e.lastSync = st.Round
			e.resumed = true
			cfg.Logf("edge %d: resuming from checkpoint (round %d, weight %.0f)", cfg.EdgeID, st.Round, e.weight)
		}
	}
	return e, nil
}

// edgeCheckpointName names edge checkpoints so several edges (and the
// cloud's "global" records) can share one directory.
func edgeCheckpointName(id int) string { return fmt.Sprintf("edge%d", id) }

// saveCheckpoint persists the edge's recovery state: model, round and
// the Eq. 6 weight accumulator (keyed by the edge's own id in the
// record's weight map).
func (e *Edge) saveCheckpoint(round int) {
	e.mu.Lock()
	st := checkpoint.State{
		Name:        edgeCheckpointName(e.cfg.EdgeID),
		Round:       round,
		Model:       append([]float64(nil), e.edgeModel...),
		EdgeWeights: map[int]float64{e.cfg.EdgeID: e.weight},
	}
	e.mu.Unlock()
	if _, err := checkpoint.SaveStateFile(e.cfg.CheckpointDir, st); err != nil {
		e.cfg.Logf("edge %d: checkpoint at round %d failed: %v", e.cfg.EdgeID, round, err)
		return
	}
	e.m.checkpoints.Inc()
	e.cfg.Logf("edge %d: checkpointed round %d", e.cfg.EdgeID, round)
}

// Addr returns the edge's device-facing listen address.
func (e *Edge) Addr() string { return e.ln.Addr().String() }

// acceptLoop admits device connections until the listener closes.
func (e *Edge) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			// A device client: register what its first frame announces,
			// then this goroutine becomes the connection's demux reader.
			conn.SetDeadline(time.Now().Add(e.cfg.Timeout))
			var reg RegisterMux
			t, vec, err := e.m.deviceLink.readMsg(conn, &reg)
			if err != nil || t != MsgRegisterMux {
				conn.Close()
				return
			}
			mx := &edgeMux{edge: e, conn: conn, waiters: map[int]chan trainResult{}, ids: map[int]bool{}}
			if err := e.registerDevices(mx, reg.Devices, vec); err != nil {
				mx.fail(err)
				return
			}
			conn.SetDeadline(time.Time{})
			mx.serve()
		}(conn)
	}
}

// Run connects to the cloud and participates until shutdown.
func (e *Edge) Run() error {
	defer e.ln.Close()
	var cloud net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		cloud, err = net.Dial("tcp", e.cfg.CloudAddr)
		if err == nil {
			break
		}
		if attempt >= e.cfg.MaxRetries {
			return fmt.Errorf("fednet: edge %d dialing cloud: %w", e.cfg.EdgeID, err)
		}
		e.m.retries.Inc()
		time.Sleep(retryBackoff(e.cfg.RetryBase, attempt+1, e.cfg.Seed, int64(e.cfg.EdgeID)))
	}
	cloud = e.cfg.Faults.WrapEdgeLink(cloud, e.cfg.EdgeID)
	defer cloud.Close()
	e.mu.Lock()
	e.cloudConn = cloud
	e.mu.Unlock()
	cloud.SetDeadline(time.Now().Add(e.cfg.Timeout))
	if err := e.m.cloudLink.writeMsg(cloud, MsgRegisterEdge, RegisterEdge{EdgeID: e.cfg.EdgeID}, nil); err != nil {
		return fmt.Errorf("fednet: edge %d registering: %w", e.cfg.EdgeID, err)
	}
	var welcome EdgeWelcome
	t, vec, err := e.m.cloudLink.readMsg(cloud, &welcome)
	if err != nil || (t != MsgGlobalModel && t != MsgEdgeWelcome) {
		return fmt.Errorf("fednet: edge %d waiting for init model: type %d, %v", e.cfg.EdgeID, t, err)
	}
	e.mu.Lock()
	if t == MsgEdgeWelcome {
		e.epoch = welcome.Epoch
	}
	switch {
	case t == MsgEdgeWelcome && welcome.Rejoin:
		// Catch-up sync: this incarnation joins mid-run, so any
		// checkpointed Eq. 6 progress belongs to a sync era the cloud has
		// moved past. Adopt the current global model with zero weight and
		// align the round/sync counters with the cloud's.
		e.edgeModel = vec
		e.weight = 0
		e.curRound = welcome.Round
		e.lastSync = welcome.LastSync
	case e.resumed && len(e.edgeModel) == len(vec):
		// Crash recovery: keep the checkpointed edge model — it carries
		// Eq. 6 progress accumulated since the last cloud sync that the
		// broadcast global model does not — and only adopt the received
		// model as the cloud reference for Eq. 12.
	default:
		e.edgeModel = vec
	}
	e.sawCloudModelLocked(vec)
	e.mu.Unlock()
	if t == MsgEdgeWelcome {
		if welcome.Rejoin {
			e.cfg.Logf("edge %d: rejoined at epoch %d (catch-up sync at round %d)", e.cfg.EdgeID, welcome.Epoch, welcome.Round)
		} else {
			e.cfg.Logf("edge %d: joined membership at epoch %d", e.cfg.EdgeID, welcome.Epoch)
		}
		if welcome.LeaseMillis > 0 {
			hbStop := make(chan struct{})
			defer close(hbStop)
			go e.heartbeat(time.Duration(welcome.LeaseMillis)*time.Millisecond, welcome.Epoch, hbStop)
		}
	}

	go e.acceptLoop()

	for {
		cloud.SetDeadline(time.Time{}) // rounds may start at any time
		var rs RoundStart
		t, _, err := e.m.cloudLink.readMsg(cloud, &rs)
		if err != nil {
			if e.stopFlag.Load() {
				// Graceful stop: Stop closed the cloud connection to unblock
				// this read. Flush state and exit cleanly.
				e.mu.Lock()
				round := e.curRound
				e.mu.Unlock()
				if e.cfg.CheckpointDir != "" && round > 0 {
					e.saveCheckpoint(round)
				}
				e.shutdownDevices()
				e.cfg.Logf("edge %d: graceful stop after round %d", e.cfg.EdgeID, round)
				return nil
			}
			return fmt.Errorf("fednet: edge %d reading round start: %w", e.cfg.EdgeID, err)
		}
		switch t {
		case MsgShutdown:
			e.shutdownDevices()
			return nil
		case MsgRoundStart:
		default:
			return fmt.Errorf("fednet: edge %d unexpected message type %d", e.cfg.EdgeID, t)
		}

		tr := e.cfg.Trace
		traceStart := tr.Now()
		eSpan := ""
		if tr != nil {
			eSpan = edgeRoundSpan(e.cfg.EdgeID, rs.Round)
		}
		roundTok := e.m.roundSpan.Begin()
		st := e.runRound(rs.Round, eSpan)
		roundTok.End()
		if tr != nil {
			tr.Complete("edge_round", "fednet", tracePidEdgeBase+e.cfg.EdgeID, 0,
				traceStart, tr.Now().Sub(traceStart), eSpan, rs.Span,
				map[string]any{"round": rs.Round, "trained": st.trained,
					"excluded": st.excluded, "rejected": st.rejected,
					"quorum_miss": st.quorumMiss})
		}
		e.mu.Lock()
		e.weight += st.weight
		curWeight := e.weight
		model := e.edgeModel
		epoch := e.epoch
		var deviceIDs []int
		if epoch > 0 && rs.Sync {
			// Membership mode: report the registered device set on sync
			// rounds so the cloud can checkpoint the device→edge assignment.
			deviceIDs = make([]int, 0, len(e.devices))
			for id := range e.devices {
				deviceIDs = append(deviceIDs, id)
			}
			sort.Ints(deviceIDs)
		}
		e.mu.Unlock()

		cloud.SetDeadline(time.Now().Add(e.cfg.Timeout))
		done := RoundDone{EdgeID: e.cfg.EdgeID, Round: rs.Round, Trained: st.trained, Epoch: epoch, Devices: deviceIDs}
		var payload []float64
		if rs.Sync {
			done.Weight = curWeight
			if curWeight > 0 {
				payload = model
			}
		}
		if err := e.m.cloudLink.writeMsg(cloud, MsgRoundDone, done, payload); err != nil {
			countTimeout(e.m.timeouts, err)
			return fmt.Errorf("fednet: edge %d acking round %d: %w", e.cfg.EdgeID, rs.Round, err)
		}
		if rs.Sync {
			t, vec, err := e.m.cloudLink.readMsgInto(cloud, nil, e.takeSpareModel)
			if err != nil || t != MsgGlobalModel {
				return fmt.Errorf("fednet: edge %d waiting for global model: type %d, %v", e.cfg.EdgeID, t, err)
			}
			e.mu.Lock()
			e.installModelLocked(vec)
			e.sawCloudModelLocked(vec)
			e.weight = 0
			e.lastSync = rs.Round
			e.mu.Unlock()
		}
		if e.cfg.CheckpointDir != "" {
			e.saveCheckpoint(rs.Round)
		}
	}
}

// sawCloudModelLocked records vec as w_c, the cloud reference of Eq. 12,
// copying it into cloudSeen's own storage: everything that reads cloudSeen
// does so under mu. e.mu must be held.
func (e *Edge) sawCloudModelLocked(vec []float64) {
	e.cloudSeen = append(e.cloudSeen[:0], vec...)
}

// takeSpareModel returns a buffer of n values nobody else reads, for the
// next edge model to be written into: the spare if it fits, else a new one.
func (e *Edge) takeSpareModel(n int) []float64 {
	e.mu.Lock()
	buf := e.spareModel
	e.spareModel = nil
	e.mu.Unlock()
	if len(buf) != n {
		buf = make([]float64, n)
	}
	return buf
}

// installModelLocked makes m the edge model. The buffer of the model it
// replaces becomes the spare unless a reader outside mu may still hold it.
// e.mu must be held.
func (e *Edge) installModelLocked(m []float64) {
	e.spareModel = nil
	if e.modelUsers == 0 {
		e.spareModel = e.edgeModel
	}
	e.edgeModel = m
}

// releaseModel ends one out-of-lock use of the edge model's buffer.
func (e *Edge) releaseModel() {
	e.mu.Lock()
	e.modelUsers--
	e.mu.Unlock()
}

// vecList is a small free list of vectors; the zero value with max set is
// ready to use.
type vecList struct {
	mu   sync.Mutex
	free [][]float64
	max  int // vectors kept at most
}

// get returns a vector of n values the caller owns: one from the list
// with the capacity, else a new one.
func (l *vecList) get(n int) []float64 {
	l.mu.Lock()
	for i, v := range l.free {
		if cap(v) >= n {
			last := len(l.free) - 1
			l.free[i], l.free[last] = l.free[last], nil
			l.free = l.free[:last]
			l.mu.Unlock()
			return v[:n]
		}
	}
	l.mu.Unlock()
	return make([]float64, n)
}

// put hands v, which nothing may reference any more, to the list. A full
// list keeps its largest vectors, so one size of reply cannot be crowded
// out by leftovers of a smaller one.
func (l *vecList) put(v []float64) {
	if cap(v) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max {
		l.free = append(l.free, v)
		return
	}
	for i, f := range l.free {
		if cap(f) < cap(v) {
			l.free[i] = v
			return
		}
	}
}

// heartbeat sends MsgLease frames to the cloud every interval on a
// dedicated connection until stop closes. A broken connection is
// redialled on the next beat; persistent failure simply lets the
// cloud's detector age this edge out, which is the correct outcome.
func (e *Edge) heartbeat(interval time.Duration, epoch int, stop <-chan struct{}) {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	seq := 0
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", e.cfg.CloudAddr, interval)
			if err != nil {
				continue
			}
			conn = c
		}
		seq++
		conn.SetWriteDeadline(time.Now().Add(e.cfg.Timeout))
		l := Lease{EdgeID: e.cfg.EdgeID, Epoch: epoch, Seq: seq}
		if err := e.m.cloudLink.writeMsg(conn, MsgLease, l, nil); err != nil {
			conn.Close()
			conn = nil
		}
	}
}

// roundStats reports one round's outcome, including the degradation
// decisions (stragglers excluded, quorum met or missed).
type roundStats struct {
	trained    int
	excluded   int
	rejected   int // updates the validator refused
	weight     float64
	quorumMiss bool
}

// trainResult is one device's contribution to a round: the delivered (or
// failed) round-trip.
type trainResult struct {
	id    int
	vec   []float64
	reply TrainReply
	err   error
}

// runRound executes one Algorithm 1 time step: selection, parallel
// training on the selected devices with per-RPC retry, Eq. 6
// aggregation over the devices that answered before the round deadline.
// span is the edge's round trace span id ("" when tracing is off); each
// train RPC records a child span and forwards its id to the device.
func (e *Edge) runRound(round int, span string) roundStats {
	e.mu.Lock()
	e.curRound = round
	candidates := make([]int, 0, len(e.devices))
	for id := range e.devices {
		candidates = append(candidates, id)
	}
	view := &edgeView{edge: e, round: round}
	model := e.edgeModel
	e.mu.Unlock()
	if len(candidates) == 0 {
		return roundStats{}
	}

	rng := tensor.Split(e.cfg.Seed, int64(round)*1_000_003+int64(e.cfg.EdgeID)*7+1)
	e.mu.Lock()
	sel := e.cfg.Strategy.Select(view, e.cfg.EdgeID, candidates, e.cfg.K, rng)
	if len(sel) > e.cfg.K {
		sel = sel[:e.cfg.K]
	}
	e.modelUsers += len(sel) // each train RPC sends model, unlocked
	e.mu.Unlock()
	if len(sel) == 0 {
		return roundStats{}
	}

	// abort tells straggler goroutines the round has moved on, so a
	// retry loop never sends a stale-round request after the deadline.
	abort := make(chan struct{})
	defer close(abort)
	results := make(chan trainResult, len(sel))
	for _, id := range sel {
		go func(id int) {
			res := e.trainDevice(id, round, span, model, abort)
			e.releaseModel()
			results <- res
		}(id)
	}

	var st roundStats
	nonFinite := 0 // updates refused on receipt
	var vecs [][]float64
	var ws []float64
	pending := make(map[int]bool, len(sel))
	for _, id := range sel {
		pending[id] = true
	}
	deadline := time.NewTimer(e.cfg.RoundDeadline)
	defer deadline.Stop()
collect:
	for len(pending) > 0 {
		select {
		case res := <-results:
			delete(pending, res.id)
			if res.err == nil && len(res.vec) != len(model) {
				res.err = fmt.Errorf("model of %d values, want %d", len(res.vec), len(model))
			}
			if res.err != nil {
				e.cfg.Logf("edge %d: device %d failed round %d: %v", e.cfg.EdgeID, res.id, round, res.err)
				e.m.drops.Inc()
				continue
			}
			// Validation pass 1: a non-finite model is rejected on
			// receipt — it is neither cached for selection (a NaN
			// lastModel would poison the Eq. 12 scores) nor aggregated.
			if e.agg.Validating() && !robust.IsFinite(res.vec) {
				nonFinite++
				e.agg.NoteNonFinite()
				e.cfg.Logf("edge %d: rejected non-finite update from device %d in round %d", e.cfg.EdgeID, res.id, round)
				continue
			}
			e.mu.Lock()
			if d, ok := e.devices[res.id]; ok {
				// Nothing still reads what this reply replaces: selection
				// reads lastModel under mu, and a round aggregates only
				// vectors received in that round.
				e.replies.put(d.lastModel)
				d.lastModel = res.vec
				d.statUtil = res.reply.Utility
				d.lastTrained = round
				d.trainedHere = true
			}
			e.mu.Unlock()
			vecs = append(vecs, res.vec)
			ws = append(ws, float64(res.reply.DataSize))
			st.trained++
		case <-deadline.C:
			break collect
		}
	}

	// Exclude stragglers past the deadline and leave them out of Eq. 6. One
	// alone on its connection is closed and dropped; one that shares it
	// stays registered (see dropIfAlone).
	tr := e.cfg.Trace
	for id := range pending {
		st.excluded++
		e.m.stragglers.Inc()
		e.mu.Lock()
		d, ok := e.devices[id]
		e.mu.Unlock()
		if ok {
			e.dropIfAlone(d.mux)
		}
		e.cfg.Logf("edge %d: excluded straggler device %d in round %d", e.cfg.EdgeID, id, round)
		if tr != nil {
			now := tr.Now()
			tr.Complete("straggler_excluded", "fednet", tracePidEdgeBase+e.cfg.EdgeID, id,
				now, 0, span+".x"+strconv.Itoa(id), span,
				map[string]any{"round": round, "device": id})
		}
	}

	// The shared aggregate step: validation pass 2 (the per-round adaptive
	// norm bound over the surviving updates, measured against the
	// pre-round edge model), the quorum check on what survives it, Eq. 6.
	fp := flight.BeginPhase("edge_agg")
	agg := e.takeSpareModel(len(model))
	out := e.agg.Combine(agg, model, vecs, ws, e.cfg.Quorum)
	fp.End()
	st.trained, st.weight = out.Kept, out.Weight
	st.rejected = nonFinite + out.Rejects.Total()
	if st.rejected > 0 {
		e.cfg.Logf("edge %d: round %d rejected %d updates (%d nonfinite, %d norm)",
			e.cfg.EdgeID, round, st.rejected, nonFinite+out.Rejects.NonFinite, out.Rejects.Norm)
		if tr != nil {
			now := tr.Now()
			tr.Complete("robust_reject", "fednet", tracePidEdgeBase+e.cfg.EdgeID, 0,
				now, 0, span+".rej", span,
				map[string]any{"round": round, "nonfinite": nonFinite + out.Rejects.NonFinite, "norm": out.Rejects.Norm})
		}
	}
	if !out.Applied {
		// Quorum not met: fall back to carrying the previous edge model
		// forward — the responders' updates are discarded rather than
		// letting a tiny, biased sample steer Eq. 6, and the edge
		// reports zero weight so the cloud skips it at the next sync.
		st.quorumMiss = true
		st.weight = 0
		e.m.quorumMisses.Inc()
		e.cfg.Logf("edge %d: round %d quorum miss (%d/%d responders)", e.cfg.EdgeID, round, st.trained, e.cfg.Quorum)
		if tr != nil {
			now := tr.Now()
			tr.Complete("quorum_miss", "fednet", tracePidEdgeBase+e.cfg.EdgeID, 0,
				now, 0, span+".qm", span,
				map[string]any{"round": round, "responders": st.trained, "quorum": e.cfg.Quorum})
		}
		e.mu.Lock()
		e.spareModel = agg
		e.mu.Unlock()
		return st
	}
	e.mu.Lock()
	e.installModelLocked(agg)
	e.mu.Unlock()
	return st
}

// trainDevice runs one device's train RPC with capped-backoff retries.
// The round-trip rides the device's connection, whose demux reader
// matches the reply by device id; after a transport error the retry
// addresses whatever connection the device re-registered with. A device
// that is not registered (it left, or its connection failed and it has not
// re-registered) ends the RPC at once: nothing remains to wait for.
func (e *Edge) trainDevice(id, round int, span string, model []float64, abort <-chan struct{}) trainResult {
	tr := e.cfg.Trace
	var lastErr error
	for attempt := 0; attempt <= e.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !e.hasDevice(id) {
				break
			}
			e.m.retries.Inc()
			time.Sleep(retryBackoff(e.cfg.RetryBase, attempt, e.cfg.Seed,
				int64(e.cfg.EdgeID)*1_000_003+int64(id)*31+int64(round)))
		}
		select {
		case <-abort:
			return trainResult{id: id, err: lastErr}
		default:
		}
		e.mu.Lock()
		d, ok := e.devices[id]
		var req TrainRequest
		if ok {
			req = TrainRequest{
				Round:       round,
				DeviceID:    id,
				Moved:       !d.trainedHere && d.arrivedFrom >= 0 && d.arrivedFrom != e.cfg.EdgeID,
				ResetLocal:  d.lastTrained < e.lastSync,
				WantMoments: e.cfg.LiveMigration,
			}
			if span != "" {
				req.Span = trainRPCSpan(span, id)
			}
		}
		e.mu.Unlock()
		if !ok {
			lastErr = fmt.Errorf("device %d not connected", id)
			break
		}
		rpcStart := tr.Now()
		rpcTok := e.m.trainSpan.Begin()
		fp := flight.BeginPhase("comm")
		vec, reply, err := d.mux.roundTrip(id, req, model)
		fp.End()
		// An unknown device answers with an empty reply; either way the
		// stream is intact, so the connection stays.
		if err == nil && (reply.Round != round || len(vec) == 0) {
			err = fmt.Errorf("train reply: round %d, %d values", reply.Round, len(vec))
		}
		if err != nil {
			countTimeout(e.m.timeouts, err)
			lastErr = err
			continue
		}
		rpcTok.End()
		if tr != nil {
			tr.Complete("train_rpc", "fednet", tracePidEdgeBase+e.cfg.EdgeID, id,
				rpcStart, tr.Now().Sub(rpcStart), req.Span, span,
				map[string]any{"round": round, "device": id, "attempt": attempt})
		}
		return trainResult{id: id, vec: vec, reply: reply}
	}
	return trainResult{id: id, err: lastErr}
}

// hasDevice reports whether device id is in the candidate set.
func (e *Edge) hasDevice(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.devices[id]
	return ok
}

// arrival reports how device id, which has just registered here, arrived,
// as fednet_migrations_total labels it: "ok" when the edge adopted the
// state it carried, "rejected" when the payload failed the receipt screen,
// "fallback" when it arrived cold after training elsewhere or is not
// registered, and "" when it had never trained, so had nothing to carry.
func (e *Edge) arrival(id int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.devices[id]
	switch {
	case !ok:
		return "fallback"
	case d.lastModel != nil:
		return "ok"
	case d.refused:
		return "rejected"
	case d.arrivedFrom >= 0:
		return "fallback"
	}
	return ""
}

func (e *Edge) shutdownDevices() {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Devices may share a connection: shut each one down once.
	seen := map[*edgeMux]bool{}
	for id, d := range e.devices {
		if mx := d.mux; !seen[mx] {
			seen[mx] = true
			_ = mx.write(MsgShutdown, struct{}{}, nil)
			mx.conn.Close()
		}
		delete(e.devices, id)
	}
	e.m.virtualDevices.Set(0)
}

// edgeView adapts the edge's device cache to hfl.View so the simulation
// strategies (MIDDLE, OORT, …) run unchanged in the networked setting.
// The caller must hold e.mu.
type edgeView struct {
	edge  *Edge
	round int
}

func (v *edgeView) Step() int             { return v.round }
func (v *edgeView) CloudModel() []float64 { return v.edge.cloudSeen }
func (v *edgeView) EdgeModel(int) []float64 {
	return v.edge.edgeModel
}

func (v *edgeView) LocalModel(device int) []float64 {
	if d, ok := v.edge.devices[device]; ok && d.lastModel != nil {
		return d.lastModel
	}
	// Never-seen devices are treated as carrying the last global model
	// (Δw = 0), matching the post-sync state in the simulation.
	return v.edge.cloudSeen
}

func (v *edgeView) DataSize(device int) int {
	if d, ok := v.edge.devices[device]; ok {
		return d.dataSize
	}
	return 0
}

func (v *edgeView) StatUtility(device int) float64 {
	if d, ok := v.edge.devices[device]; ok {
		return d.statUtil
	}
	return math.NaN()
}

func (v *edgeView) LastTrained(device int) int {
	if d, ok := v.edge.devices[device]; ok {
		return d.lastTrained
	}
	return -1
}

// SelectionNormCap implements hfl.NormCapView so norm-aware strategies
// stop preferring devices whose cached update exceeds the cap.
func (v *edgeView) SelectionNormCap() float64 { return v.edge.cfg.SelectionNormCap }

var _ hfl.View = (*edgeView)(nil)
var _ hfl.NormCapView = (*edgeView)(nil)
