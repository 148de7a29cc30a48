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
	// RoundInterval, when > 0, is a floor on the duration of each round:
	// the cloud delays the next RoundStart until this much time has
	// passed since the previous one. Deployments use it to pace rounds
	// against real-time processes (device mobility, devices still
	// attaching) instead of letting empty early rounds burn through the
	// schedule in microseconds. 0 (default) keeps free-running rounds.
	RoundInterval time.Duration
	// MinEdges, when > 0, enables graceful degradation: an edge whose
	// connection fails is dropped and the run continues as long as at
	// least MinEdges remain. At 0 (default) any edge failure aborts the
	// run, the strict pre-fault behaviour.
	MinEdges int
	// CheckpointDir, when set, makes the cloud persist its state (global
	// model + round + per-edge weights) after every sync round, and
	// NewCloud resume from the latest valid checkpoint found there. Torn
	// or corrupt files are rejected by CRC and skipped.
	CheckpointDir string
	// Aggregator selects the Eq. 7 combiner: "" or "mean" (default) or
	// "trimmed-mean" (see internal/robust).
	Aggregator robust.AggregatorKind
	// Validate screens received edge models before Eq. 7, mirroring the
	// edge-side update validation.
	Validate robust.ValidatorConfig
	// Membership enables the self-healing membership layer: per-edge
	// heartbeat leases driving a miss-count failure detector, mid-run edge
	// rejoin at a bumped epoch, and epoch fencing of frames from stale
	// incarnations. Disabled (the zero value) the edge set is fixed:
	// membership with a static set at epoch 0, no welcome frame and no
	// detector, whose failures surface only when an RPC happens to fail.
	Membership MembershipConfig
	// OnEdgeDown, when set, is invoked on its own goroutine after the
	// membership layer declares an edge dead. The in-process cluster uses
	// it to re-home the dead edge's devices onto survivors.
	OnEdgeDown func(edge int)
	// OnEdgeUp, when set, is invoked on its own goroutine after a mid-run
	// edge (re)join is admitted into the membership.
	OnEdgeUp func(edge int)
	// Logf, when set, receives progress lines (default: discarded).
	Logf func(format string, args ...any)
	// OnRound, when set, is invoked after each round fully completes
	// (all edges acked; global model broadcast on sync rounds) and
	// before the next round starts. Demo harnesses use it to move
	// devices between edges at round boundaries.
	OnRound func(round int)
	// Obs, when set, receives per-message byte/latency metrics
	// (fednet_* series). Nil disables metrics at near-zero cost.
	Obs *obs.Registry
	// Trace, when set, records a span per round (plus a sync child) and
	// stamps RoundStart.Span so edges and devices can parent their spans
	// on it. Nil disables tracing at near-zero cost.
	Trace *obs.Trace
}

// Cloud coordinates rounds across edge servers. It is the lockstep
// driver: edges act only on RoundStart messages.
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
	// epoch starts at the checkpointed one and only moves in membership
	// mode.
	ms         *membership
	assignment map[int]int // device → edge, reported on sync rounds
	lastSync   int         // round of the most recent cloud sync

	// gate, when set before Run, holds the first RoundStart until it is
	// closed: StartCluster attaches its devices behind it so a short run
	// cannot burn its rounds on edges with nobody to select.
	gate chan struct{}

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

// paceRound enforces the RoundInterval floor: it sleeps out whatever
// remains of the interval since the previous round start (recorded in
// *prev), returning early if a graceful stop arrives mid-sleep.
func (c *Cloud) paceRound(prev *time.Time) {
	if c.cfg.RoundInterval > 0 && !prev.IsZero() {
		if d := c.cfg.RoundInterval - time.Since(*prev); d > 0 {
			select {
			case <-time.After(d):
			case <-c.stop:
			}
		}
	}
	*prev = time.Now()
}

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
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: cloud listen: %w", err)
	}
	cfg.Membership = cfg.Membership.withDefaults()
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

// StartRound reports the round the cloud resumes from (0 on a fresh
// start; > 0 when NewCloud restored a checkpoint).
func (c *Cloud) StartRound() int { return c.startRound }

type edgeConn struct {
	id   int
	conn net.Conn
}

// Run admits the configured number of edges, drives all rounds, and
// shuts the cluster down. It returns once training completes or a
// protocol error occurs. There is one loop for both modes: the fixed
// edge set is membership with a static set, and only admission (admit)
// and peer loss (memberDead) know the difference.
func (c *Cloud) Run() error {
	defer c.ln.Close()
	ms := c.ms
	dynamic := c.cfg.Membership.Enabled
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
	if dynamic {
		detStop := make(chan struct{})
		defer close(detStop)
		go c.runDetector(ms, detStop)
	}
	defer func() {
		for _, m := range ms.alive() {
			m.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			_ = c.m.link.writeMsg(m.conn, MsgShutdown, struct{}{}, nil)
			m.conn.Close()
		}
	}()
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-c.stop:
		}
	}

	var prevRound time.Time
	for r := c.startRound + 1; r <= c.cfg.Rounds; r++ {
		c.paceRound(&prevRound)
		if c.stopping() {
			c.cfg.Logf("cloud: graceful stop after round %d", r-1)
			c.checkpointFinal(r - 1)
			return nil
		}
		// Edges that (re)joined since the last boundary are admitted now.
		for drained := false; !drained; {
			select {
			case e := <-ms.joinCh:
				if err := c.admit(ms, e, r-1, true); err != nil {
					c.cfg.Logf("cloud: edge %d not admitted mid-run: %v", e.id, err)
				}
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
				if derr := c.memberDead(ms, m, r, err); derr != nil {
					return derr
				}
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
			var done RoundDone
			t, vec, err := c.m.link.readMsg(m.conn, &done)
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
				if derr := c.memberDead(ms, m, r, err); derr != nil {
					return derr
				}
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
					if derr := c.memberDead(ms, m, r, err); derr != nil {
						return derr
					}
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
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(r)
		}
	}
	return nil
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

// checkpointSync persists the cloud state after round r. Membership
// state (epoch + device→edge assignment) rides in the record when the
// membership layer is active; otherwise that section is empty.
func (c *Cloud) checkpointSync(r int) {
	c.mu.Lock()
	st := checkpoint.State{
		Name:        "global",
		Round:       r,
		Model:       append([]float64(nil), c.global...),
		EdgeWeights: c.edgeWeights,
	}
	c.mu.Unlock()
	if c.cfg.Membership.Enabled {
		st.Epoch = c.ms.currentEpoch()
		st.Assignment = maps.Clone(c.assignment)
	}
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

// checkQuorum aborts the run once too few edges survive: MinEdges of
// them, or — membership exists to survive edge loss — a lone survivor
// when the caller set no larger quorum in membership mode. A fixed set
// with MinEdges 0 never gets here: its first loss is already fatal.
func (c *Cloud) checkQuorum(aliveEdges, round int) error {
	minEdges := c.cfg.MinEdges
	if c.cfg.Membership.Enabled && minEdges < 1 {
		minEdges = 1
	}
	if aliveEdges < minEdges {
		return fmt.Errorf("fednet: only %d edges remain in round %d (min %d)", aliveEdges, round, minEdges)
	}
	return nil
}
