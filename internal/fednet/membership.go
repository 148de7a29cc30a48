package fednet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// MembershipConfig tunes the cloud's self-healing membership layer.
// With Enabled false (the default) the edge set is static — admitted
// once at epoch 0, never welcomed, never watched by the detector — and
// every frame the cloud sends is identical to the pre-membership
// protocol.
type MembershipConfig struct {
	// Enabled turns the layer on: the cloud keeps accepting edges for
	// the whole run, welcomes each with MsgEdgeWelcome (epoch + lease
	// interval + current global model), runs a heartbeat failure
	// detector and fences frames from stale incarnations.
	Enabled bool
	// LeaseInterval is the heartbeat period the cloud asks edges for and
	// the failure detector's tick (default 500 ms).
	LeaseInterval time.Duration
	// SuspectMisses is the number of consecutive lease intervals without
	// a heartbeat after which an edge is suspected (logged and counted,
	// default 2).
	SuspectMisses int
	// DeadMisses is the number of consecutive missed intervals after
	// which a suspected edge is declared dead: its connections close,
	// the membership epoch bumps and OnEdgeDown fires (default 4).
	DeadMisses int
	// DetectorTick, when set, replaces the wall-clock detector ticker —
	// tests drive the detector by hand so suspicion and death are a
	// deterministic function of delivered leases and ticks, independent
	// of scheduling.
	DetectorTick <-chan time.Time
}

// withDefaults fills the zero values. Enabled is left alone.
func (mc MembershipConfig) withDefaults() MembershipConfig {
	if mc.LeaseInterval <= 0 {
		mc.LeaseInterval = 500 * time.Millisecond
	}
	if mc.SuspectMisses < 1 {
		mc.SuspectMisses = 2
	}
	if mc.DeadMisses < 1 {
		mc.DeadMisses = 4
	}
	if mc.DeadMisses < mc.SuspectMisses {
		mc.DeadMisses = mc.SuspectMisses
	}
	return mc
}

// member is one admitted edge incarnation. A restarted edge gets a new
// member (and a new epoch); the old one stays dead forever, so every
// frame carrying its epoch is recognisably stale.
type member struct {
	id    int
	epoch int // incarnation epoch assigned at welcome (0 in a fixed set)
	conn  net.Conn

	// Detector state, guarded by membership.mu.
	beats     int  // leases received since the last detector tick
	misses    int  // consecutive tick intervals without a lease
	suspected bool // logged once per suspicion episode
	dead      bool
}

// membership is the cloud's dynamic edge-set bookkeeping: the epoch
// counter, live member table and the queue of edges waiting to be
// admitted at the next round boundary.
type membership struct {
	mu      sync.Mutex
	epoch   int
	members map[int]*member
	joinCh  chan *edgeConn // registrations from the accept loop
	conns   []net.Conn     // every accepted conn, closed at shutdown
}

func newMembership(startEpoch int) *membership {
	return &membership{
		epoch:   startEpoch,
		members: map[int]*member{},
		joinCh:  make(chan *edgeConn, 64),
	}
}

func (ms *membership) currentEpoch() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.epoch
}

// alive returns the live members sorted by edge id, so the round loop
// iterates deterministically.
func (ms *membership) alive() []*member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]*member, 0, len(ms.members))
	for _, m := range ms.members {
		if !m.dead {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// track remembers a connection for shutdown cleanup.
func (ms *membership) track(conn net.Conn) {
	ms.mu.Lock()
	ms.conns = append(ms.conns, conn)
	ms.mu.Unlock()
}

// closeAll tears down every tracked connection (shutdown).
func (ms *membership) closeAll() {
	ms.mu.Lock()
	conns := ms.conns
	ms.conns = nil
	ms.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// recordLease credits a heartbeat to the (id, epoch) incarnation. It
// returns false when the lease is stale: no such member, a dead member,
// or an epoch that does not match the live incarnation — the caller
// must fence the sender.
func (ms *membership) recordLease(id, epoch int) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.members[id]
	if m == nil || m.dead || m.epoch != epoch {
		return false
	}
	m.beats++
	m.misses = 0
	m.suspected = false
	return true
}

// Epoch reports the current membership epoch: the checkpointed one (0 on
// a fresh start) until the membership layer bumps it.
func (c *Cloud) Epoch() int { return c.ms.currentEpoch() }

// Assignment returns a copy of the device→edge assignment the cloud
// has learned from sync-round reports (membership mode only; empty
// otherwise). Meaningful once Run has finished or between rounds.
func (c *Cloud) Assignment() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.assignment))
	for d, e := range c.assignment {
		out[d] = e
	}
	return out
}

// acceptLoop accepts connections for the whole run, dispatching each on
// its first frame: MsgRegisterEdge queues a join for the next round
// boundary, MsgLease turns the connection into a heartbeat stream. It
// exits when the listener closes.
func (c *Cloud) acceptLoop(ms *membership) {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		ms.track(conn)
		go func(conn net.Conn) {
			conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			var first struct {
				EdgeID int `json:"edge_id"`
				Epoch  int `json:"epoch"`
				Seq    int `json:"seq"`
			}
			t, _, err := c.m.link.readMsg(conn, &first)
			switch {
			case err != nil:
				conn.Close()
			case t == MsgRegisterEdge:
				select {
				case ms.joinCh <- &edgeConn{id: first.EdgeID, conn: conn}:
				case <-c.stop:
					conn.Close()
				}
			case t == MsgLease:
				c.leaseStream(ms, conn, first.EdgeID, first.Epoch)
			default:
				c.cfg.Logf("cloud: rejected connection opening with message type %d", t)
				conn.Close()
			}
		}(conn)
	}
}

// leaseStream consumes heartbeats from one edge incarnation. A lease
// whose epoch does not match the live incarnation is a stale frame from
// a fenced (dead or superseded) edge: it is counted, the connection is
// closed and the zombie learns it is no longer a member.
func (c *Cloud) leaseStream(ms *membership, conn net.Conn, id, epoch int) {
	for {
		if !ms.recordLease(id, epoch) {
			c.m.staleFrames.Inc()
			c.cfg.Logf("cloud: rejected stale lease from edge %d (epoch %d)", id, epoch)
			conn.Close()
			return
		}
		// Block until the next beat; the detector tracks freshness, the
		// stream only delivers. A broken conn simply ends the stream —
		// missed beats then age the member out.
		conn.SetDeadline(time.Time{})
		var l Lease
		t, _, err := c.m.link.readMsg(conn, &l)
		if err != nil || t != MsgLease {
			conn.Close()
			return
		}
		id, epoch = l.EdgeID, l.Epoch
	}
}

// admit installs one registered edge as a member and sends it the
// current global model — one of the two places the modes differ. A fixed
// set admits only before the first round, at epoch 0 and with a bare
// MsgGlobalModel: the pre-membership handshake, byte for byte. The
// self-healing membership gives every incarnation a fresh epoch and
// welcomes it with MsgEdgeWelcome, which a rejoining edge adopts as its
// catch-up sync. Either way a newcomer supersedes a live member with its
// id (a restart that beat the failure to be noticed): the old one is
// fenced so its frames are rejected.
func (c *Cloud) admit(ms *membership, e *edgeConn, lastRound int, rejoin bool) error {
	dynamic := c.cfg.Membership.Enabled
	if rejoin && !dynamic {
		e.conn.Close()
		return fmt.Errorf("the edge set is fixed")
	}
	m := &member{id: e.id, conn: e.conn}
	ms.mu.Lock()
	if old := ms.members[e.id]; old != nil && !old.dead {
		old.dead = true
		old.conn.Close()
		if dynamic {
			ms.epoch++
		}
		c.cfg.Logf("cloud: edge %d superseded by new incarnation; fencing epoch %d", e.id, old.epoch)
	}
	if dynamic {
		ms.epoch++
		m.epoch = ms.epoch
	}
	ms.members[e.id] = m
	ms.mu.Unlock()

	e.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	var err error
	if dynamic {
		c.m.epochGauge.Set(float64(m.epoch))
		err = c.m.link.writeMsg(e.conn, MsgEdgeWelcome, EdgeWelcome{
			Epoch:       m.epoch,
			Round:       lastRound,
			LastSync:    c.lastSync,
			LeaseMillis: int(c.cfg.Membership.LeaseInterval / time.Millisecond),
			Rejoin:      rejoin,
		}, c.GlobalModel())
	} else {
		err = c.m.link.writeMsg(e.conn, MsgGlobalModel, struct{}{}, c.GlobalModel())
	}
	if err != nil {
		ms.mu.Lock()
		m.dead = true
		ms.mu.Unlock()
		e.conn.Close()
		return err
	}
	if !rejoin {
		c.cfg.Logf("cloud: edge %d joined at epoch %d (%d/%d)", e.id, m.epoch, len(ms.alive()), c.cfg.Edges)
		return nil
	}
	c.m.rejoins.Inc()
	c.cfg.Logf("cloud: edge %d rejoined at epoch %d (catch-up at round %d)", e.id, m.epoch, lastRound)
	if tr := c.cfg.Trace; tr != nil {
		now := tr.Now()
		tr.Complete("edge_rejoin", "fednet", tracePidCloud, e.id,
			now, 0, fmt.Sprintf("c.rejoin.e%d.ep%d", e.id, m.epoch), "",
			map[string]any{"edge": e.id, "epoch": m.epoch})
	}
	if c.cfg.OnEdgeUp != nil {
		go c.cfg.OnEdgeUp(e.id)
	}
	return nil
}

// memberDead excises one member whose round connection failed, whose
// frame was fenced or whom the detector aged out — the other place the
// modes differ. A fixed set follows the strict/MinEdges rule: with
// MinEdges 0 the loss is fatal (the returned error ends the run),
// otherwise the edge is closed and counted and the run continues subject
// to checkQuorum. The self-healing membership, exactly once per
// incarnation, additionally bumps the epoch, records the failover and
// fires OnEdgeDown so the deployment re-homes the dead edge's devices.
func (c *Cloud) memberDead(ms *membership, m *member, round int, cause error) error {
	dynamic := c.cfg.Membership.Enabled
	if !dynamic && c.cfg.MinEdges <= 0 {
		return fmt.Errorf("fednet: cloud lost edge %d in round %d: %w", m.id, round, cause)
	}
	ms.mu.Lock()
	if m.dead {
		ms.mu.Unlock()
		return nil
	}
	m.dead = true
	if dynamic {
		ms.epoch++
	}
	epoch := ms.epoch
	ms.mu.Unlock()
	m.conn.Close()
	c.m.edgeDrops.Inc()
	if !dynamic {
		c.cfg.Logf("cloud: dropped edge %d in round %d: %v", m.id, round, cause)
		return nil
	}
	c.m.failovers.Inc()
	c.m.epochGauge.Set(float64(epoch))
	c.cfg.Logf("cloud: edge %d declared dead in round %d (%v); epoch now %d", m.id, round, cause, epoch)
	if tr := c.cfg.Trace; tr != nil {
		now := tr.Now()
		tr.Complete("edge_failover", "fednet", tracePidCloud, m.id,
			now, 0, fmt.Sprintf("c.failover.e%d.ep%d", m.id, m.epoch), "",
			map[string]any{"edge": m.id, "incarnation": m.epoch, "epoch": epoch, "round": round})
	}
	if c.cfg.OnEdgeDown != nil {
		go c.cfg.OnEdgeDown(m.id)
	}
	return nil
}

// runDetector ages members out on missed leases: every tick without a
// heartbeat increments a member's miss count; SuspectMisses marks it
// suspected, DeadMisses declares it dead. Timing is wall-clock by
// default and fully caller-driven through MembershipConfig.DetectorTick
// in tests.
func (c *Cloud) runDetector(ms *membership, stop <-chan struct{}) {
	tick := c.cfg.Membership.DetectorTick
	if tick == nil {
		t := time.NewTicker(c.cfg.Membership.LeaseInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-tick:
			c.detectOnce(ms)
		}
	}
}

// detectOnce runs one detector sweep. Split out for tests.
func (c *Cloud) detectOnce(ms *membership) {
	type verdict struct {
		m       *member
		misses  int
		suspect bool
		dead    bool
	}
	var verdicts []verdict
	ms.mu.Lock()
	for _, m := range ms.members {
		if m.dead {
			continue
		}
		if m.beats > 0 {
			m.beats = 0
			continue
		}
		m.misses++
		c.m.leaseMisses.Inc()
		v := verdict{m: m, misses: m.misses}
		if m.misses >= c.cfg.Membership.DeadMisses {
			v.dead = true
		} else if m.misses >= c.cfg.Membership.SuspectMisses && !m.suspected {
			m.suspected = true
			v.suspect = true
		}
		if v.dead || v.suspect {
			verdicts = append(verdicts, v)
		}
	}
	ms.mu.Unlock()
	for _, v := range verdicts {
		if v.dead {
			// The detector runs in membership mode only, where a loss is
			// never fatal.
			_ = c.memberDead(ms, v.m, 0, fmt.Errorf("missed %d lease intervals", v.misses))
		} else if v.suspect {
			c.cfg.Logf("cloud: edge %d suspected (%d missed lease intervals)", v.m.id, v.misses)
		}
	}
}
