package fednet

import (
	"fmt"
	"maps"
	"net"
	"sync"
	"time"

	"middle/internal/checkpoint"
	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/robust"
)

// CloudConfig configures the coordinating cloud server.
type CloudConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port in tests).
	Addr string
	// Edges is the number of edge servers to wait for before training.
	Edges int
	// Rounds is the number of Algorithm 1 time steps to coordinate.
	Rounds int
	// CloudInterval is T_c: every this many rounds the cloud aggregates
	// edge models and broadcasts the new global model.
	CloudInterval int
	// InitModel is the initial global model vector.
	InitModel []float64
	// Timeout bounds every network read/write (default 30 s).
	Timeout time.Duration
	// LeaseInterval is the heartbeat period the cloud asks edges for and
	// the tick of its failure detector (default 500 ms). An edge silent
	// for four intervals is declared dead; the run goes on while at least
	// one edge lives.
	LeaseInterval time.Duration
	// CheckpointDir, when set, makes the cloud persist its state (global
	// model + round + per-edge weights + membership epoch and device→edge
	// assignment) after every sync round, and
	// NewCloud resume from the latest valid checkpoint found there. Torn
	// or corrupt files are rejected by CRC and skipped.
	CheckpointDir string
	// Aggregator selects the Eq. 7 combiner: "" or "mean" (default) or
	// "trimmed-mean" (see internal/robust).
	Aggregator robust.AggregatorKind
	// Validate screens received edge models before Eq. 7, mirroring the
	// edge-side update validation.
	Validate robust.ValidatorConfig
	// Logf, when set, receives progress lines (default: discarded).
	Logf func(format string, args ...any)
	// Obs, when set, receives per-message byte/latency metrics
	// (fednet_* series). Nil disables metrics at near-zero cost.
	Obs *obs.Registry
	// Trace, when set, records a span per round (plus a sync child) and
	// stamps RoundStart.Span so edges and devices can parent their spans
	// on it. Nil disables tracing at near-zero cost.
	Trace *obs.Trace
}

// Cloud coordinates rounds across edge servers. It is the lockstep
// driver: edges act only on RoundStart messages, and fleets (Fleet) move
// their devices only at the boundaries it sends them between rounds.
type Cloud struct {
	cfg CloudConfig
	ln  net.Listener
	m   cloudMetrics
	agg *robust.Point // the Eq. 7 aggregate step

	mu     sync.Mutex
	global []float64
	// spare is the buffer of the global model before this one, which the
	// next sync aggregates into: the two swap. Only Run touches it, and
	// nobody else holds a global model's buffer — readers copy under mu.
	spare []float64

	startRound  int             // rounds ≤ startRound were already completed (resume)
	edgeWeights map[int]float64 // last sync's per-edge weights (checkpointed)

	// ms is the edge set: epoch counter, member table and join queue. The
	// epoch starts at the checkpointed one.
	ms         *membership
	assignment map[int]int // device → edge, reported on sync rounds
	lastSync   int         // round of the most recent cloud sync

	// fleetCh queues the fleets that announced themselves, for the next
	// round boundary (the first one, for round 1); sized like joinCh, so
	// a burst of devices processes starting together queues without
	// waiting on the round loop.
	fleetCh chan *fleetConn

	// stop requests a graceful drain: the round loop finishes the round
	// in flight, persists a final checkpoint and returns nil.
	stop     chan struct{}
	stopOnce sync.Once
}

// Stop requests a graceful shutdown: the cloud completes the round in
// flight, writes a final checkpoint (when checkpointing is configured),
// broadcasts MsgShutdown and makes Run return nil. Safe to call from
// any goroutine, more than once, and before Run.
func (c *Cloud) Stop() { c.stopOnce.Do(func() { close(c.stop) }) }

// stopping reports whether Stop has been called.
func (c *Cloud) stopping() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// NewCloud builds a cloud server and starts listening (so the address is
// known before Run is called).
func NewCloud(cfg CloudConfig) (*Cloud, error) {
	if cfg.Edges < 1 || cfg.Rounds < 1 || cfg.CloudInterval < 1 {
		return nil, fmt.Errorf("fednet: implausible cloud config %+v", cfg)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: cloud listen: %w", err)
	}
	cfg.Trace.SetProcessName(tracePidCloud, "cloud")
	c := &Cloud{
		cfg:         cfg,
		ln:          ln,
		m:           newCloudMetrics(cfg.Obs),
		agg:         robust.NewPoint(cfg.Aggregator, cfg.Validate, cfg.Obs),
		global:      append([]float64(nil), cfg.InitModel...),
		edgeWeights: map[int]float64{},
		ms:          newMembership(0),
		assignment:  map[int]int{},
		fleetCh:     make(chan *fleetConn, 64),
		stop:        make(chan struct{}),
	}
	if cfg.CheckpointDir != "" {
		// Named load: edges may checkpoint into the same directory.
		st, ok, err := checkpoint.LoadLatestNamed(cfg.CheckpointDir, "global")
		if err != nil {
			ln.Close()
			return nil, err
		}
		if ok {
			c.global = st.Model
			c.startRound = st.Round
			c.ms.epoch = st.Epoch
			maps.Copy(c.assignment, st.Assignment)
			maps.Copy(c.edgeWeights, st.EdgeWeights)
			cfg.Logf("cloud: resuming from checkpoint (round %d)", st.Round)
		}
	}
	return c, nil
}

// Addr returns the cloud's listen address.
func (c *Cloud) Addr() string { return c.ln.Addr().String() }

// GlobalModel returns a copy of the current global model.
func (c *Cloud) GlobalModel() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.global...)
}

type edgeConn struct {
	id   int
	conn net.Conn
}

// Run admits the configured number of edges, then waits for a fleet to
// announce its attached devices, drives all rounds, and shuts the cluster
// down. It returns once training completes, every edge is lost or a
// protocol error occurs. Edges that (re)register mid-run are admitted at
// the next round boundary, and so are fleets; an edge whose round RPC
// fails or whose leases stop is excised (memberDead), a fleet whose
// connection breaks is dropped.
func (c *Cloud) Run() error {
	defer c.ln.Close()
	ms := c.ms
	defer ms.closeAll()
	go c.acceptLoop(ms)

	// Admit the initial edge set before training starts. A Stop while
	// waiting exits cleanly instead of hanging on a quorum that will
	// never arrive.
	for len(ms.alive()) < c.cfg.Edges {
		select {
		case e := <-ms.joinCh:
			if err := c.admit(ms, e, c.startRound, false); err != nil {
				return fmt.Errorf("fednet: cloud admitting edge %d: %w", e.id, err)
			}
		case <-c.stop:
			c.cfg.Logf("cloud: graceful stop while waiting for edges (%d/%d registered)", len(ms.alive()), c.cfg.Edges)
			return nil
		}
	}
	detStop := make(chan struct{})
	defer close(detStop)
	go c.runDetector(ms, detStop)
	var fleets []*fleetConn
	defer func() {
		// Fleets first: a move still in flight ends before its edges do.
		for _, f := range c.joinFleets(fleets) {
			f.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			_ = c.m.link.writeMsg(f.conn, MsgShutdown, struct{}{}, nil)
			f.conn.Close()
		}
		for _, m := range ms.alive() {
			m.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			_ = c.m.link.writeMsg(m.conn, MsgShutdown, struct{}{}, nil)
			m.conn.Close()
		}
	}()
	// Round 1 waits for the first fleet's devices to attach: a short run
	// must not burn its rounds on edges with nobody to select.
	select {
	case f := <-c.fleetCh:
		fleets = append(fleets, f)
	case <-c.stop:
	}

	var done RoundDone // each member's report in turn, its Devices storage reused
	for r := c.startRound + 1; r <= c.cfg.Rounds; r++ {
		if c.stopping() {
			c.cfg.Logf("cloud: graceful stop after round %d", r-1)
			c.checkpointFinal(r - 1)
			return nil
		}
		// Edges that (re)joined since the last boundary are admitted now.
		for drained := false; !drained; {
			select {
			case e := <-ms.joinCh:
				c.rejoin(e, r-1)
			default:
				drained = true
			}
		}
		members := ms.alive()
		if err := c.checkQuorum(len(members), r); err != nil {
			return err
		}

		roundTok := c.m.roundSpan.Begin()
		tr := c.cfg.Trace
		traceStart := tr.Now()
		span := ""
		if tr != nil {
			span = cloudRoundSpan(r)
		}
		sync := r%c.cfg.CloudInterval == 0
		alive := members[:0]
		for _, m := range members {
			m.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			rs := RoundStart{Round: r, Sync: sync, Span: span, Epoch: m.epoch}
			if err := c.m.link.writeMsg(m.conn, MsgRoundStart, rs, nil); err != nil {
				countTimeout(c.m.timeouts, err)
				c.memberDead(ms, m, r, err)
				continue
			}
			alive = append(alive, m)
		}
		members = alive
		if err := c.checkQuorum(len(members), r); err != nil {
			return err
		}
		var vecs [][]float64
		var weights []float64
		if sync {
			c.mu.Lock()
			c.edgeWeights = map[int]float64{}
			c.mu.Unlock()
		}
		alive = members[:0]
		for _, m := range members {
			m.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			t, vec, err := c.m.link.readMsgInto(m.conn, &done, m.modelBuf)
			if err == nil && t != MsgRoundDone {
				err = fmt.Errorf("unexpected message type %d", t)
			}
			if err == nil && len(vec) > 0 && len(vec) != len(c.global) {
				err = fmt.Errorf("model of %d values, want %d", len(vec), len(c.global))
			}
			if err == nil && done.Epoch != m.epoch {
				// A zombie frame from a fenced incarnation (or an edge that
				// skipped its welcome): reject it and excise the sender.
				c.m.staleFrames.Inc()
				err = fmt.Errorf("stale frame epoch %d (incarnation %d)", done.Epoch, m.epoch)
			}
			if err != nil {
				countTimeout(c.m.timeouts, err)
				c.memberDead(ms, m, r, err)
				continue
			}
			if done.Round != r {
				return fmt.Errorf("fednet: edge %d acked round %d during round %d", m.id, done.Round, r)
			}
			alive = append(alive, m)
			if sync {
				c.mu.Lock()
				c.edgeWeights[m.id] = done.Weight
				for _, d := range done.Devices {
					c.assignment[d] = m.id
				}
				c.mu.Unlock()
			}
			if sync && done.Weight > 0 && len(vec) > 0 {
				vecs = append(vecs, vec)
				weights = append(weights, done.Weight)
			}
		}
		members = alive
		if err := c.checkQuorum(len(members), r); err != nil {
			return err
		}
		if sync {
			syncStart := tr.Now()
			fp := flight.BeginPhase("cloud_sync")
			synced := c.applySync(r, vecs, weights)
			// Only this goroutine writes c.global, so the broadcast sends
			// it to every member as it stands, uncopied.
			for _, m := range members {
				m.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
				if err := c.m.link.writeMsg(m.conn, MsgGlobalModel, struct{}{}, c.global); err != nil {
					countTimeout(c.m.timeouts, err)
					c.memberDead(ms, m, r, err)
				}
			}
			c.m.syncs.Inc()
			if c.cfg.CheckpointDir != "" {
				c.checkpointSync(r)
			}
			fp.End()
			if tr != nil {
				tr.Complete("cloud_sync", "fednet", tracePidCloud, 0,
					syncStart, tr.Now().Sub(syncStart), span+".sync", span,
					map[string]any{"round": r, "edges": synced})
			}
			c.cfg.Logf("cloud: round %d synced %d edge models", r, synced)
		}
		c.m.rounds.Inc()
		roundTok.End()
		if tr != nil {
			tr.Complete("cloud_round", "fednet", tracePidCloud, 0,
				traceStart, tr.Now().Sub(traceStart), span, "",
				map[string]any{"round": r, "sync": sync, "edges": len(members)})
		}
		fleets = c.boundary(r, fleets)
	}
	return nil
}

// fleetConn is one fleet's connection: the cloud writes it a boundary
// after every round, and its reader (acceptLoop) delivers the fleet's
// echoes on acks, which it closes when the connection breaks.
type fleetConn struct {
	conn net.Conn
	acks chan int
}

// joinFleets adds the fleets that announced themselves since the last
// boundary to fleets.
func (c *Cloud) joinFleets(fleets []*fleetConn) []*fleetConn {
	for {
		select {
		case f := <-c.fleetCh:
			fleets = append(fleets, f)
		default:
			return fleets
		}
	}
}

// boundary ends round r at the fleets, newcomers included: it sends each
// one a boundary and waits for its echo — its devices have moved — for as
// long as the fleet's connection lives, since a move may wait out a
// Connect's back-off and a failover. A Stop ends the wait. It returns the
// fleets still connected.
func (c *Cloud) boundary(r int, fleets []*fleetConn) []*fleetConn {
	fleets = c.joinFleets(fleets)
	for _, f := range fleets {
		f.conn.SetWriteDeadline(time.Now().Add(c.cfg.Timeout))
		if err := c.m.link.writeMsg(f.conn, MsgBoundary, Boundary{Round: r}, nil); err != nil {
			f.conn.Close() // its reader sees the close and closes acks
		}
	}
	var live []*fleetConn
	for i := 0; i < len(fleets); {
		select {
		case got, ok := <-fleets[i].acks:
			if ok && got == r {
				live = append(live, fleets[i])
			} else {
				fleets[i].conn.Close()
				c.cfg.Logf("cloud: fleet dropped at the boundary of round %d", r)
			}
			i++
		case e := <-c.ms.joinCh:
			// Welcomed now, not after the echo: a device moving to a
			// restarted edge waits for its registration ack.
			c.rejoin(e, r)
		case <-c.stop:
			return append(live, fleets[i:]...)
		}
	}
	return live
}

// rejoin admits an edge that registered mid-run, after round.
func (c *Cloud) rejoin(e *edgeConn, round int) {
	if err := c.admit(c.ms, e, round, true); err != nil {
		c.cfg.Logf("cloud: edge %d not admitted mid-run: %v", e.id, err)
	}
}

// applySync runs the shared aggregate step over the gathered edge
// models and installs the new global model. It returns the number of
// edge models that entered Eq. 7.
func (c *Cloud) applySync(r int, vecs [][]float64, weights []float64) int {
	// Only this goroutine writes c.global, so it reads it unlocked; the
	// lock orders the install against GlobalModel's readers.
	next := c.spare
	if len(next) != len(c.global) {
		next = make([]float64, len(c.global))
	}
	out := c.agg.Combine(next, c.global, vecs, weights, 1)
	if out.Rejects.Total() > 0 {
		c.cfg.Logf("cloud: round %d rejected %d edge models (%d nonfinite, %d norm)",
			r, out.Rejects.Total(), out.Rejects.NonFinite, out.Rejects.Norm)
	}
	if out.Applied {
		c.mu.Lock()
		c.global, next = next, c.global
		c.mu.Unlock()
	}
	c.spare = next
	c.lastSync = r
	return out.Kept
}

// checkpointSync persists the cloud state after round r, membership
// epoch and device→edge assignment included.
func (c *Cloud) checkpointSync(r int) {
	epoch := c.ms.currentEpoch()
	c.mu.Lock()
	st := checkpoint.State{
		Name:        "global",
		Round:       r,
		Model:       append([]float64(nil), c.global...),
		EdgeWeights: c.edgeWeights,
		Epoch:       epoch,
		Assignment:  maps.Clone(c.assignment),
	}
	c.mu.Unlock()
	if _, err := checkpoint.SaveStateFile(c.cfg.CheckpointDir, st); err != nil {
		c.cfg.Logf("cloud: checkpoint at round %d failed: %v", r, err)
	} else {
		c.m.checkpoints.Inc()
		c.cfg.Logf("cloud: checkpointed round %d", r)
	}
}

// checkpointFinal persists the state reached after `round` completed,
// used by the graceful Stop drain so a kill-and-resume restart does not
// redo work since the last periodic checkpoint.
func (c *Cloud) checkpointFinal(round int) {
	if c.cfg.CheckpointDir == "" || round <= 0 {
		return
	}
	c.checkpointSync(round)
	c.cfg.Logf("cloud: final checkpoint at round %d", round)
}

// checkQuorum aborts the run once no edge survives.
func (c *Cloud) checkQuorum(aliveEdges, round int) error {
	if aliveEdges < 1 {
		return fmt.Errorf("fednet: only %d edges remain in round %d", aliveEdges, round)
	}
	return nil
}
