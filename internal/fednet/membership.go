package fednet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// The failure detector's thresholds, in consecutive lease intervals
// without a heartbeat: after suspectMisses an edge is suspected (logged),
// after deadMisses it is declared dead — its connection closes and the
// membership epoch bumps. Its devices find out on their own: their
// connections to it fail, and they fail over (DeviceMuxConfig.Failover).
const (
	suspectMisses = 2
	deadMisses    = 4
)

// member is one admitted edge incarnation. A restarted edge gets a new
// member (and a new epoch); the old one stays dead forever, so every
// frame carrying its epoch is recognisably stale.
type member struct {
	id    int
	epoch int // incarnation epoch assigned at welcome
	conn  net.Conn
	// model is the vector its RoundDone payloads are decoded into: only
	// Cloud.Run reads it, and nothing keeps it past the round.
	model []float64

	// Detector state, guarded by membership.mu.
	beats     int  // leases received since the last detector tick
	misses    int  // consecutive tick intervals without a lease
	suspected bool // logged once per suspicion episode
	dead      bool
}

// membership is the cloud's edge-set bookkeeping: the epoch
// counter, live member table and the queue of edges waiting to be
// admitted at the next round boundary.
type membership struct {
	mu      sync.Mutex
	epoch   int
	deaths  int // members declared dead (fednet_edge_failovers_total)
	members map[int]*member
	joinCh  chan *edgeConn // registrations from the accept loop
	conns   []net.Conn     // every accepted conn, closed at shutdown
	closed  bool           // shut down: a conn accepted since is closed at once
}

// modelBuf returns m.model resized to n values, the storage RoundDone
// payloads are decoded into.
func (m *member) modelBuf(n int) []float64 {
	if cap(m.model) < n {
		m.model = make([]float64, n)
	}
	return m.model[:n]
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

// track remembers a connection for shutdown cleanup, or closes it when
// the shutdown has passed.
func (ms *membership) track(conn net.Conn) {
	ms.mu.Lock()
	ms.conns = append(ms.conns, conn)
	closed := ms.closed
	ms.mu.Unlock()
	if closed {
		conn.Close()
	}
}

// closeAll tears down every tracked connection (shutdown).
func (ms *membership) closeAll() {
	ms.mu.Lock()
	conns := ms.conns
	ms.conns, ms.closed = nil, true
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
// a fresh start) until an admission or a death bumps it.
func (c *Cloud) Epoch() int { return c.ms.currentEpoch() }

// deaths reports how many members the cloud declared dead.
func (c *Cloud) deaths() int {
	c.ms.mu.Lock()
	defer c.ms.mu.Unlock()
	return c.ms.deaths
}

// acceptLoop accepts connections for the whole run, dispatching each on
// its first frame: MsgRegisterEdge queues a join for the next round
// boundary, MsgLease turns the connection into a heartbeat stream and
// MsgBoundary into a fleet's (fleetStream). It exits when the listener
// closes.
func (c *Cloud) acceptLoop(ms *membership) {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		ms.track(conn)
		go func(conn net.Conn) {
			conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
			var first frameHeaders
			t, _, err := c.m.link.readMsg(conn, &first)
			switch {
			case err != nil:
				conn.Close()
			case t == MsgRegisterEdge:
				select {
				case ms.joinCh <- &edgeConn{id: first.registerEdge.EdgeID, conn: conn}:
				case <-c.stop:
					conn.Close()
				}
			case t == MsgLease:
				c.leaseStream(ms, conn, first.lease.EdgeID, first.lease.Epoch)
			case t == MsgBoundary:
				c.fleetStream(conn)
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
	var l Lease
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
		t, _, err := c.m.link.readMsg(conn, &l)
		if err != nil || t != MsgLease {
			conn.Close()
			return
		}
		id, epoch = l.EdgeID, l.Epoch
	}
}

// fleetStream queues a fleet that announced its attached devices for the
// next round boundary, then delivers its boundary echoes. The echoes may
// take as long as the fleet's moves do, so reads have no deadline; the
// stream ends when the connection breaks or the fleet sends a frame
// nobody asked for, closing acks.
func (c *Cloud) fleetStream(conn net.Conn) {
	f := &fleetConn{conn: conn, acks: make(chan int, 1)}
	defer close(f.acks)
	select {
	case c.fleetCh <- f:
	case <-c.stop:
		conn.Close()
		return
	}
	var b Boundary
	for {
		conn.SetReadDeadline(time.Time{})
		t, _, err := c.m.link.readMsg(conn, &b)
		if err != nil || t != MsgBoundary {
			conn.Close()
			return
		}
		select {
		case f.acks <- b.Round:
		default: // an echo before the last was taken: not the protocol
			conn.Close()
			return
		}
	}
}

// admit installs one registered edge as a member at a fresh epoch and
// welcomes it with MsgEdgeWelcome — the epoch, the lease interval and the
// current global model, which a rejoining edge adopts as its catch-up
// sync. A newcomer supersedes a live member with its id (a restart that
// beat the failure to be noticed): the old one is fenced so its frames
// are rejected.
func (c *Cloud) admit(ms *membership, e *edgeConn, lastRound int, rejoin bool) error {
	m := &member{id: e.id, conn: e.conn}
	ms.mu.Lock()
	if old := ms.members[e.id]; old != nil && !old.dead {
		old.dead = true
		old.conn.Close()
		ms.epoch++
		c.cfg.Logf("cloud: edge %d superseded by new incarnation; fencing epoch %d", e.id, old.epoch)
	}
	ms.epoch++
	m.epoch = ms.epoch
	ms.members[e.id] = m
	ms.mu.Unlock()

	e.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	c.m.epochGauge.Set(float64(m.epoch))
	err := c.m.link.writeMsg(e.conn, MsgEdgeWelcome, EdgeWelcome{
		Epoch:       m.epoch,
		Round:       lastRound,
		LastSync:    c.lastSync,
		LeaseMillis: int(c.cfg.LeaseInterval / time.Millisecond),
		Rejoin:      rejoin,
	}, c.GlobalModel())
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
	return nil
}

// memberDead excises one member whose round connection failed, whose
// frame was fenced or whom the detector aged out. Exactly once per
// incarnation it closes the connection, bumps the epoch and records the
// failover; the run goes on while checkQuorum allows.
func (c *Cloud) memberDead(ms *membership, m *member, round int, cause error) {
	ms.mu.Lock()
	if m.dead {
		ms.mu.Unlock()
		return
	}
	m.dead = true
	ms.epoch++
	ms.deaths++
	epoch := ms.epoch
	ms.mu.Unlock()
	m.conn.Close()
	c.m.failovers.Inc()
	c.m.epochGauge.Set(float64(epoch))
	c.cfg.Logf("cloud: edge %d declared dead in round %d (%v); epoch now %d", m.id, round, cause, epoch)
	if tr := c.cfg.Trace; tr != nil {
		now := tr.Now()
		tr.Complete("edge_failover", "fednet", tracePidCloud, m.id,
			now, 0, fmt.Sprintf("c.failover.e%d.ep%d", m.id, m.epoch), "",
			map[string]any{"edge": m.id, "incarnation": m.epoch, "epoch": epoch, "round": round})
	}
}

// runDetector ages members out on missed leases: every lease interval
// without a heartbeat increments a member's miss count; suspectMisses
// marks it suspected, deadMisses declares it dead.
func (c *Cloud) runDetector(ms *membership, stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.LeaseInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
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
		if m.misses >= deadMisses {
			v.dead = true
		} else if m.misses >= suspectMisses && !m.suspected {
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
			c.memberDead(ms, v.m, 0, fmt.Errorf("missed %d lease intervals", v.misses))
		} else if v.suspect {
			c.cfg.Logf("cloud: edge %d suspected (%d missed lease intervals)", v.m.id, v.misses)
		}
	}
}
