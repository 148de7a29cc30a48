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
	// Timeout bounds one frame's I/O — a registration handshake, a
	// request written to a device (cut sooner at its round's deadline),
	// an exchange with the cloud — and an expiry counts in
	// fednet_timeouts_total (default 30 s). A train RPC waiting for its
	// reply is bounded by RoundDeadline alone.
	Timeout time.Duration
	// Quorum is the minimum number of responders a round needs before
	// the edge aggregates Eq. 6 (default 1, clamped to ≤ K). Below
	// quorum the edge carries its previous model forward and reports
	// zero weight to the cloud.
	Quorum int
	// RoundDeadline bounds how long a round waits for its train RPCs
	// (default Timeout). An RPC still open then ends with its round: the
	// device is a straggler, excluded from Eq. 6 and counted in
	// fednet_excluded_stragglers_total, its late reply is discarded, and
	// a device alone on its connection is closed and dropped. A request
	// still being written then fails its connection.
	RoundDeadline time.Duration
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
	// hfl.Cohort under mu. cands, sel, slots and due are runRound's
	// scratch — the candidate ids, the cohort, its train RPCs by position
	// in it and the round's deadline — which only the Run goroutine touches.
	rng   *tensor.RNG
	cands []int
	sel   []int
	slots []rpcSlot
	due   time.Time
	// inbox receives what ends an attempt of a train RPC — its reply or
	// its connection's failure, from the demux readers — and the end of a
	// retry's back-off. A cohort position has at most one post pending and
	// a round ends with none, so a post never blocks. writers are the
	// round's request writes, which it waits for: none reads the edge
	// model after.
	inbox   chan rpcResult
	writers sync.WaitGroup

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
	// demux readers read them to build registration acks.
	edgeModel []float64
	// spareModel is the buffer of the edge model before this one: the next
	// aggregate or global model is written into it, so the two swap from
	// round to round.
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
		inbox:      make(chan rpcResult, cfg.K),
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

// acceptLoop admits device connections until the listener closes, each
// with its demux reader from the first frame.
func (e *Edge) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		mx := &edgeMux{edge: e, conn: conn, open: map[int]rpcTag{}, ids: map[int]bool{}}
		go mx.serve()
	}
}

// Run connects to the cloud and participates until shutdown.
func (e *Edge) Run() error {
	defer e.ln.Close()
	cloud, err := e.dialCloud()
	if err != nil {
		return err
	}
	defer cloud.Close()
	welcome, err := e.join(cloud)
	if err != nil {
		return err
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
		if err := e.reportRound(cloud, rs, st, welcome.Epoch); err != nil {
			return err
		}
		if e.cfg.CheckpointDir != "" {
			e.saveCheckpoint(rs.Round)
		}
	}
}

// dialCloud connects to the cloud, retrying with back-off, and records the
// connection for Stop and Kill.
func (e *Edge) dialCloud() (net.Conn, error) {
	var cloud net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		cloud, err = net.Dial("tcp", e.cfg.CloudAddr)
		if err == nil {
			break
		}
		if attempt >= maxRetries {
			return nil, fmt.Errorf("fednet: edge %d dialing cloud: %w", e.cfg.EdgeID, err)
		}
		e.m.retries.Inc()
		time.Sleep(retryBackoff(retryBase, attempt+1, e.cfg.Seed, int64(e.cfg.EdgeID)))
	}
	cloud = e.cfg.Faults.WrapEdgeLink(cloud, e.cfg.EdgeID)
	e.mu.Lock()
	e.cloudConn = cloud
	e.mu.Unlock()
	return cloud, nil
}

// join is the edge's handshake: it registers with the cloud and adopts
// the welcome's global model, as its model or, resuming from a checkpoint,
// only as Eq. 12's cloud reference.
func (e *Edge) join(cloud net.Conn) (EdgeWelcome, error) {
	var welcome EdgeWelcome
	cloud.SetDeadline(time.Now().Add(e.cfg.Timeout))
	if err := e.m.cloudLink.writeMsg(cloud, MsgRegisterEdge, RegisterEdge{EdgeID: e.cfg.EdgeID}, nil); err != nil {
		return welcome, fmt.Errorf("fednet: edge %d registering: %w", e.cfg.EdgeID, err)
	}
	t, vec, err := e.m.cloudLink.readMsg(cloud, &welcome)
	if err == nil && (t != MsgEdgeWelcome || welcome.LeaseMillis < 1) {
		err = fmt.Errorf("type %d, lease %d ms", t, welcome.LeaseMillis)
	}
	if err != nil {
		return welcome, fmt.Errorf("fednet: edge %d waiting for welcome: %w", e.cfg.EdgeID, err)
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
	return welcome, nil
}

// reportRound acks round rs to the cloud. A sync round's ack carries the
// edge's weight since the last sync, its model if that is positive and its
// devices, and the edge installs the global model sent back.
func (e *Edge) reportRound(cloud net.Conn, rs RoundStart, st roundStats, epoch int) error {
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
	if !rs.Sync {
		return nil
	}
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
	return nil
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

// installModelLocked makes m the edge model and the buffer of the model
// it replaces the spare: no train RPC outlives its round, so nothing
// reads that buffer any more. e.mu must be held.
func (e *Edge) installModelLocked(m []float64) {
	e.spareModel, e.edgeModel = e.edgeModel, m
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

// rpcResult is posted to the inbox when a train RPC ends — its reply, or
// the error that failed it — or when a retry's back-off has passed,
// tagged with the round and the cohort position.
type rpcResult struct {
	rpcTag
	vec   []float64
	reply TrainReply
	err   error
}

// rpcSlot is one cohort position's train RPC across its attempts: the
// connection the attempt in flight rides or the back-off before the next,
// never both, when the request was sent, the retries spent, and what
// ended the RPC — a reply or an error, neither for a straggler. Either of
// the first two posts once to the inbox, so at most K posts are pending.
type rpcSlot struct {
	mx      *edgeMux
	backoff *time.Timer
	sent    time.Time
	tries   int
	res     rpcResult
}

// runRound executes one Algorithm 1 time step: selection, training on the
// selected devices, Eq. 6 aggregation over the devices that answered
// before the round deadline. The round owns its train RPCs: once it
// returns none is open and no request is being written. span is the
// edge's round trace span id ("" when tracing is off); each train RPC
// records a child span and forwards its id to the device.
func (e *Edge) runRound(round int, span string) roundStats {
	sel, model := e.selectCohort(round)
	if len(sel) == 0 {
		return roundStats{}
	}
	e.slots = slices.Grow(e.slots[:0], len(sel))[:len(sel)]
	clear(e.slots)
	e.collect(round, span, model)
	e.closeRPCs(round)
	excluded := e.excludeStragglers(round, span)
	e.writers.Wait() // each ends by the deadline (see send)

	// The shared aggregate step: the screen, the quorum, Eq. 6. Below
	// quorum a tiny, biased sample does not steer Eq. 6: the edge carries
	// its previous model forward with zero weight, so the cloud skips it.
	// Replies are offered in cohort order, not in arrival order: a float
	// sum depends on its order.
	fp := flight.BeginPhase("edge_agg")
	for _, s := range e.slots {
		e.agg.Offer(s.res.vec, float64(s.res.reply.DataSize))
	}
	agg := e.takeSpareModel(len(model))
	out := e.agg.Combine(agg, model, e.cfg.Quorum)
	fp.End()
	// Every reply, kept by Eq. 6 or rejected, goes back once.
	for _, s := range e.slots {
		e.replies.put(s.res.vec)
	}
	e.mu.Lock()
	if out.Applied {
		e.installModelLocked(agg)
	} else {
		e.spareModel = agg
	}
	e.mu.Unlock()

	st := roundStats{trained: out.Kept, excluded: excluded, rejected: out.Rejects.Total(),
		weight: out.Weight, quorumMiss: !out.Applied}
	tr, pid := e.cfg.Trace, tracePidEdgeBase+e.cfg.EdgeID
	if st.rejected > 0 {
		e.cfg.Logf("edge %d: round %d rejected %d updates (%d nonfinite, %d norm)",
			e.cfg.EdgeID, round, st.rejected, out.Rejects.NonFinite, out.Rejects.Norm)
		if tr != nil {
			tr.Complete("robust_reject", "fednet", pid, 0, tr.Now(), 0, span+".rej", span,
				map[string]any{"round": round, "nonfinite": out.Rejects.NonFinite, "norm": out.Rejects.Norm})
		}
	}
	if st.quorumMiss {
		e.m.quorumMisses.Inc()
		e.cfg.Logf("edge %d: round %d quorum miss (%d/%d responders)", e.cfg.EdgeID, round, st.trained, e.cfg.Quorum)
		if tr != nil {
			tr.Complete("quorum_miss", "fednet", pid, 0, tr.Now(), 0, span+".qm", span,
				map[string]any{"round": round, "responders": st.trained, "quorum": e.cfg.Quorum})
		}
	}
	return st
}

// collect sends the cohort's train requests, then takes what the inbox
// brings until every RPC has ended or the round deadline passes.
func (e *Edge) collect(round int, span string, model []float64) {
	e.due = time.Now().Add(e.cfg.RoundDeadline)
	deadline := time.NewTimer(e.cfg.RoundDeadline)
	defer deadline.Stop()
	left := len(e.slots)
	for at := range e.slots {
		if !e.send(round, at, span, model) {
			left--
		}
	}
	for left > 0 {
		select {
		case res := <-e.inbox:
			if e.receive(round, span, model, res) {
				left--
			}
		case <-deadline.C:
			return
		}
	}
}

// send starts an attempt of slot at's train RPC: it builds the request
// from what the edge keeps of the device, records the RPC as open on the
// device's connection and hands the request to a writer the round waits
// for. The write must end by the round's deadline: one that fails or is
// cut there fails the connection, which ends the RPC. A device that is not
// registered, or whose connection has failed, fails the attempt at once.
// It reports whether the RPC goes on.
func (e *Edge) send(round, at int, span string, model []float64) bool {
	id := e.sel[at]
	req := TrainRequest{Round: round, DeviceID: id}
	if span != "" {
		req.Span = trainRPCSpan(span, id)
	}
	e.mu.Lock()
	d, ok := e.devices[id]
	if ok {
		req.Moved = !d.trainedHere && d.arrivedFrom >= 0 && d.arrivedFrom != e.cfg.EdgeID
		req.ResetLocal = !trainedSince(d.lastTrained, e.lastSync)
	}
	e.mu.Unlock()
	switch {
	case !ok:
		return e.retry(round, at, fmt.Errorf("device %d not connected", id))
	case !d.mux.openRPC(id, rpcTag{round, at}):
		return e.retry(round, at, errConnLost)
	}
	s, mx, due := &e.slots[at], d.mux, e.due
	s.mx, s.sent = mx, time.Now()
	e.writers.Add(1)
	go func() {
		defer e.writers.Done()
		fp := flight.BeginPhase("comm")
		err := e.m.deviceLink.writeShared(&mx.wmu, mx.conn, min(e.cfg.Timeout, time.Until(due)), MsgTrainRequest, req, model)
		fp.End()
		if err != nil {
			countTimeout(e.m.timeouts, err)
			mx.fail(err)
		}
	}()
	return true
}

// receive handles one post of the inbox and reports whether the slot's
// RPC is over. A passed back-off sends the next attempt. A reply with the
// edge model's size is the slot's result, scored for Eq. 12 on arrival;
// one of another size fails the slot. An empty reply (the client did not
// know the device) or a lost connection is a fault, retried.
func (e *Edge) receive(round int, span string, model []float64, res rpcResult) bool {
	s, id := &e.slots[res.at], e.sel[res.at]
	if s.backoff != nil {
		s.backoff = nil
		return !e.send(round, res.at, span, model)
	}
	s.mx = nil
	if res.err == nil && len(res.vec) == 0 {
		res.err = fmt.Errorf("train reply of round %d carries no model", res.reply.Round)
	}
	if res.err != nil {
		e.replies.put(res.vec)
		return !e.retry(round, res.at, res.err)
	}
	e.m.trainSpan.Observe(time.Since(s.sent))
	if tr := e.cfg.Trace; tr != nil {
		tr.Complete("train_rpc", "fednet", tracePidEdgeBase+e.cfg.EdgeID, id,
			s.sent, time.Since(s.sent), trainRPCSpan(span, id), span,
			map[string]any{"round": round, "device": id, "attempt": s.tries})
	}
	if len(res.vec) != len(model) {
		e.replies.put(res.vec)
		e.failSlot(round, res.at, fmt.Errorf("model of %d values, want %d", len(res.vec), len(model)))
		return true
	}
	s.res = res
	if !e.agg.Validating() || robust.IsFinite(res.vec) {
		// A screened edge does not score a non-finite model for selection
		// (NaN scores would poison Eq. 12); Eq. 6's screen rejects it.
		e.acceptReply(id, round, res.reply.Utility, res.vec)
	}
	return true
}

// retry handles a failed attempt of slot at. While the device is
// registered and retries remain, the next attempt waits out a capped,
// jittered back-off, whose end is posted to the inbox, and retry reports
// true; otherwise the slot fails with err.
func (e *Edge) retry(round, at int, err error) bool {
	s, id := &e.slots[at], e.sel[at]
	e.mu.Lock()
	_, registered := e.devices[id]
	e.mu.Unlock()
	if s.tries == maxRetries || !registered {
		e.failSlot(round, at, err)
		return false
	}
	s.tries++
	e.m.retries.Inc()
	tag := rpcTag{round, at}
	s.backoff = time.AfterFunc(retryBackoff(retryBase, s.tries, e.cfg.Seed,
		int64(e.cfg.EdgeID)*1_000_003+int64(id)*31+int64(round)),
		func() { e.inbox <- rpcResult{rpcTag: tag} })
	return true
}

// failSlot ends slot at's RPC with err: the device is left out of Eq. 6.
func (e *Edge) failSlot(round, at int, err error) {
	e.slots[at].res.err = err
	e.cfg.Logf("edge %d: device %d failed round %d: %v", e.cfg.EdgeID, e.sel[at], round, err)
	e.m.drops.Inc()
}

// closeRPCs ends what is left of the round's RPCs when it stops waiting:
// each open RPC is withdrawn from its connection and each back-off
// stopped or, when a post won that race, the post is received here and
// its vector goes back to the free list. A late reply never reaches a
// later round.
func (e *Edge) closeRPCs(round int) {
	posted := 0
	for at := range e.slots {
		s := &e.slots[at]
		if s.mx != nil {
			if _, ok := s.mx.take(e.sel[at], round); !ok {
				posted++
			}
		}
		if s.backoff != nil && !s.backoff.Stop() {
			posted++
		}
		s.mx, s.backoff = nil, nil
	}
	for ; posted > 0; posted-- {
		e.replies.put((<-e.inbox).vec)
	}
}

// selectCohort draws round's cohort from the registered devices (Algorithm
// 1, line 2) and returns it with the edge model its train RPCs send, which
// stays the edge model until the round returns.
func (e *Edge) selectCohort(round int) (sel []int, model []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.sel = hfl.Cohort(e.sel[:0], e.cfg.Strategy, view, e.cfg.EdgeID, round, e.cfg.K, cands, e.cfg.Seed, e.rng)
	return e.sel, e.edgeModel
}

// excludeStragglers counts the devices whose replies missed the round
// deadline. One alone on its connection has it closed, which drops the
// device; the client reconnects and resyncs via the registration ack.
// One that shares it stays registered: the connection is healthy, and
// closing it would take the siblings down too.
func (e *Edge) excludeStragglers(round int, span string) int {
	excluded, tr := 0, e.cfg.Trace
	for at, s := range e.slots {
		if s.res.vec != nil || s.res.err != nil {
			continue
		}
		id := e.sel[at]
		excluded++
		e.m.stragglers.Inc()
		e.mu.Lock()
		d, ok := e.devices[id]
		alone := ok && len(d.mux.ids) <= 1
		e.mu.Unlock()
		if alone {
			d.mux.fail(nil)
		}
		e.cfg.Logf("edge %d: excluded straggler device %d in round %d", e.cfg.EdgeID, id, round)
		if tr != nil {
			tr.Complete("straggler_excluded", "fednet", tracePidEdgeBase+e.cfg.EdgeID, id,
				tr.Now(), 0, span+".x"+strconv.Itoa(id), span,
				map[string]any{"round": round, "device": id})
		}
	}
	return excluded
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
