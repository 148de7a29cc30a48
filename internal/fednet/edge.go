package fednet

import (
	"fmt"
	"math"
	"net"
	"slices"
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
	"middle/internal/simil"
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
	// edge adapts it through a View over what it keeps of its devices.
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
	// devices whose update norm exceeds it (see hfl.NormCapView).
	SelectionNormCap float64
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

// deviceState is the edge's knowledge about one connected device —
// exactly the information the paper allows selection to use (what its
// model says to Eq. 12 and participation history, never raw data).
type deviceState struct {
	// mux is the connection the device registered through; all I/O goes
	// through its write lock and demux reader.
	mux         *edgeMux
	id          int
	dataSize    int
	arrivedFrom int  // edge the device trained under before connecting here
	trainedHere bool // has it trained at this edge since arriving?
	// drift is Eq. 12's input for the model the device trained in
	// lastTrained: scored when the edge received that model (a train reply
	// or a warm registration's payload) or carried in by a warm
	// registration. It holds only while trainedSince(lastTrained, lastSync);
	// edgeView.DriftInfo answers zero otherwise.
	drift       Drift
	statUtil    float64
	lastTrained int
	// warm marks a warm registration the edge adopted, refused one whose
	// carried state failed the receipt screen: the device arrived cold.
	warm, refused bool
}

// trainedSince reports whether a device that last trained in round
// lastTrained has trained since the cloud sync of round lastSync. A sync
// pushes w_c down to every device, one that trained in the sync round too
// (Algorithm 1, lines 10–15): until it trains again a device holds w_c, so
// it discards its carried model (TrainRequest.ResetLocal) and its Eq. 12
// drift is zero.
func trainedSince(lastTrained, lastSync int) bool { return lastTrained > lastSync }

// Edge runs the in-edge half of Algorithm 1 as a server: it accepts
// device connections, selects K of them each round, ships them the edge
// model, aggregates their replies (Eq. 6) and reports to the cloud.
type Edge struct {
	cfg     EdgeConfig
	ln      net.Listener
	m       edgeMetrics
	agg     *robust.Point // the Eq. 6 aggregate step
	resumed bool          // state restored from a checkpoint by NewEdge
	// rng is the selection generator, re-seeded to each round's stream by
	// hfl.Cohort under mu. cands, sel and got are runRound's scratch — the
	// candidate ids, the cohort and its replies by position in it — which
	// only the Run goroutine touches.
	rng   *tensor.RNG
	cands []int
	sel   []int
	got   []trainResult

	mu      sync.Mutex
	devices map[int]*deviceState

	// migrations tallies fednet_migrations_total by outcome, so summaries
	// stay truthful with metrics off.
	migrations map[string]int

	// replies is the free list the demux readers decode train replies and
	// registration payloads into. A reply goes back once its round's Eq. 6
	// has returned, a payload once it is scored, so the edge holds no device
	// model beyond the round that received it. It keeps 2K.
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
	// cloudSeen is the last global model received (w_c for Eq. 12), in its
	// own storage. Only the Run goroutine writes it, under mu, so a round
	// reads it unlocked.
	cloudSeen []float64
	weight    float64 // d̂ accumulator since last sync
	lastSync  int     // round of the last cloud sync
	curRound  int     // round currently (or last) executed

	// The cloud connection (so Stop/Kill can interrupt a blocked read),
	// guarded by mu, and the graceful-stop and kill flags.
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
		cfg:        cfg,
		ln:         ln,
		m:          newEdgeMetrics(cfg.Obs),
		agg:        robust.NewPoint(cfg.Aggregator, cfg.Validate, cfg.Obs),
		replies:    vecList{max: 2 * cfg.K},
		devices:    map[int]*deviceState{},
		rng:        tensor.NewRNG(0),
		migrations: map[string]int{},
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
			t, vec, err := e.m.deviceLink.readMsgInto(conn, &reg, e.replies.get)
			if err != nil || t != MsgRegisterMux {
				e.replies.put(vec)
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
	if err == nil && (t != MsgEdgeWelcome || welcome.LeaseMillis < 1) {
		err = fmt.Errorf("type %d, lease %d ms", t, welcome.LeaseMillis)
	}
	if err != nil {
		return fmt.Errorf("fednet: edge %d waiting for welcome: %w", e.cfg.EdgeID, err)
	}
	e.mu.Lock()
	switch {
	case welcome.Rejoin:
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
	if welcome.Rejoin {
		e.cfg.Logf("edge %d: rejoined at epoch %d (catch-up sync at round %d)", e.cfg.EdgeID, welcome.Epoch, welcome.Round)
	} else {
		e.cfg.Logf("edge %d: joined membership at epoch %d", e.cfg.EdgeID, welcome.Epoch)
	}
	hbStop := make(chan struct{})
	defer close(hbStop)
	go e.heartbeat(time.Duration(welcome.LeaseMillis)*time.Millisecond, welcome.Epoch, hbStop)

	go e.acceptLoop()

	var rs RoundStart
	for {
		cloud.SetDeadline(time.Time{}) // rounds may start at any time
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
		var deviceIDs []int
		if rs.Sync {
			// Report the registered device set on sync rounds so the cloud
			// can checkpoint the device→edge assignment.
			deviceIDs = make([]int, 0, len(e.devices))
			for id := range e.devices {
				deviceIDs = append(deviceIDs, id)
			}
			sort.Ints(deviceIDs)
		}
		e.mu.Unlock()

		cloud.SetDeadline(time.Now().Add(e.cfg.Timeout))
		done := RoundDone{EdgeID: e.cfg.EdgeID, Round: rs.Round, Trained: st.trained, Epoch: welcome.Epoch, Devices: deviceIDs}
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
	cands := e.cands[:0]
	for id := range e.devices {
		cands = append(cands, id)
	}
	// Strategies shuffle their input, so the selection depends on its
	// order: map order would make every run a different one.
	slices.Sort(cands)
	e.cands = cands
	view := &edgeView{edge: e, round: round}
	sel := hfl.Cohort(e.sel[:0], e.cfg.Strategy, view, e.cfg.EdgeID, round, e.cfg.K, cands, e.cfg.Seed, e.rng)
	e.sel = sel
	model := e.edgeModel
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
	// Replies are kept by position in sel and handed to Eq. 6 in that
	// order, not in arrival order: a float sum depends on its order.
	got := slices.Grow(e.got[:0], len(sel))[:len(sel)]
	clear(got)
	e.got = got
	pending := make(map[int]int, len(sel)) // device → position in sel
	for i, id := range sel {
		pending[id] = i
	}
	deadline := time.NewTimer(e.cfg.RoundDeadline)
	defer deadline.Stop()
collect:
	for len(pending) > 0 {
		select {
		case res := <-results:
			at := pending[res.id]
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
			// receipt — it is neither scored for selection (NaN scores
			// would poison Eq. 12) nor aggregated.
			if e.agg.Validating() && !robust.IsFinite(res.vec) {
				nonFinite++
				e.agg.NoteNonFinite()
				e.cfg.Logf("edge %d: rejected non-finite update from device %d in round %d", e.cfg.EdgeID, res.id, round)
				e.replies.put(res.vec)
				continue
			}
			e.acceptReply(res.id, round, res.reply.Utility, res.vec)
			got[at] = res
			st.trained++
		case <-deadline.C:
			break collect
		}
	}
	var vecs [][]float64
	var ws []float64
	for _, res := range got {
		if res.vec != nil {
			vecs = append(vecs, res.vec)
			ws = append(ws, float64(res.reply.DataSize))
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
	// Every reply, kept by Eq. 6 or rejected, goes back once.
	for _, res := range got {
		e.replies.put(res.vec)
	}
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

// acceptReply records device id's accepted reply of round, vec, with its Oort
// utility, and scores vec for Eq. 12 once, outside mu: cloudSeen changes
// only at a sync, which zeroes every score, so these are the bits a
// selection would compute from vec until then. The device is sent its
// scores before the round is reported to the cloud, for its next warm
// registration to carry in place of the model.
func (e *Edge) acceptReply(id, round int, util float64, vec []float64) {
	var dr Drift
	dr.U, dr.DeltaNorm = simil.SelectionUtilityNorm(e.cloudSeen, vec)
	e.mu.Lock()
	d, ok := e.devices[id]
	if ok {
		d.drift, d.statUtil, d.lastTrained, d.trainedHere = dr, util, round, true
	}
	e.mu.Unlock()
	if !ok || !finite(dr) { // a header carries no NaN: the device falls back to its payload
		return
	}
	if err := d.mux.write(MsgScores, Scores{DeviceID: id, Round: round, Drift: dr}, nil); err != nil {
		d.mux.fail(err)
	}
}

// finite reports whether both numbers of dr are finite.
func finite(dr Drift) bool {
	return !math.IsNaN(dr.U) && !math.IsInf(dr.U, 0) && !math.IsNaN(dr.DeltaNorm) && !math.IsInf(dr.DeltaNorm, 0)
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
				Round:      round,
				DeviceID:   id,
				Moved:      !d.trainedHere && d.arrivedFrom >= 0 && d.arrivedFrom != e.cfg.EdgeID,
				ResetLocal: !trainedSince(d.lastTrained, e.lastSync),
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

// edgeView adapts the edge's device state to hfl.View so the simulation
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

// LocalModel is w_c for every device: the edge keeps no device model.
// Eq. 12 reads a device through DriftInfo instead, which always knows.
func (v *edgeView) LocalModel(int) []float64 { return v.edge.cloudSeen }

// DriftInfo implements hfl.ResidentView: a device's stored scores while it
// has trained since the last sync, exactly zero otherwise — it holds w_c
// (trainedSince) — as for a device the edge does not know.
func (v *edgeView) DriftInfo(device int) (utility, deltaNorm float64, known bool) {
	if d, ok := v.edge.devices[device]; ok && trainedSince(d.lastTrained, v.edge.lastSync) {
		return d.drift.U, d.drift.DeltaNorm, true
	}
	return 0, 0, true
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
// stop preferring devices whose update norm exceeds the cap.
func (v *edgeView) SelectionNormCap() float64 { return v.edge.cfg.SelectionNormCap }

var _ hfl.View = (*edgeView)(nil)
var _ hfl.NormCapView = (*edgeView)(nil)
var _ hfl.ResidentView = (*edgeView)(nil)
