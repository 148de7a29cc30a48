package fednet

// Self-healing membership tests: lease-driven failure detection, edge
// failover with warm device re-homing, rejoin under a bumped epoch with
// stale-incarnation fencing, and the disabled path staying inert.

import (
	"math"
	"net"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/tensor"
)

func membershipClusterConfig(t *testing.T, rounds int, mob mobility.Model) ClusterConfig {
	t.Helper()
	prof := data.FastImageProfile(4)
	train := data.GenerateImagesSplit(prof, 400, 5, 5)
	part := data.PartitionMajorClass(train, mob.NumDevices(), 30, 0.85, 6)
	factory := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewLinear(train.SampleSize(), 16, rng),
			nn.NewReLU(),
			nn.NewLinear(16, train.Classes, rng),
		)
	}
	return ClusterConfig{
		Rounds: rounds, K: 2, LocalSteps: 2, BatchSize: 8, CloudInterval: 3,
		Strategy: core.NewMiddle(), Partition: part, Factory: factory,
		Optimizer: hfl.OptimizerSpec{Kind: hfl.OptSGDMomentum, LR: 0.05, Momentum: 0.9},
		Mobility:  mob, Seed: 1,
		Membership: MembershipConfig{Enabled: true, LeaseInterval: 50 * time.Millisecond},
	}
}

// heldMobility holds a cluster's run open between two rounds: its Step
// call number at (StartCluster makes call 1, the cloud one after each
// round) blocks until the test closes release, so a test's choreography
// cannot outlast a run of a few milliseconds.
type heldMobility struct {
	mobility.Model
	at, calls int
	release   chan struct{}
}

func holdAt(m mobility.Model, at int) *heldMobility {
	return &heldMobility{Model: m, at: at, release: make(chan struct{})}
}

func (h *heldMobility) Step() []int {
	if h.calls++; h.calls == h.at {
		<-h.release
	}
	return h.Model.Step()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterFailoverRehome is the membership acceptance test: killing one
// of three edges mid-run (the in-process SIGKILL) must be detected by
// the cloud's lease detector, every one of its devices re-homed onto the
// survivors, and the run driven to completion with nobody stranded — with
// a client per device and with three devices per client alike. The kill
// races the first rounds and their periodic checkpointing on purpose —
// memberDead and checkpointSync share the membership state — and the run
// is held open after round 3 until the failover has re-homed every device.
func TestClusterFailoverRehome(t *testing.T) {
	for _, group := range []int{1, 3} {
		mob := holdAt(mobility.NewMarkovRing(3, 9, 0.3, 7), 4)
		cfg := membershipClusterConfig(t, 15, mob)
		reg := obs.NewRegistry()
		cfg.Obs = reg
		cfg.Mux = group
		cfg.CheckpointDir = t.TempDir()
		c, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.KillEdge(2)
		waitFor(t, 10*time.Second, "edge 2 declared dead and its devices re-homed", func() bool {
			return reg.Histogram("fednet_failover_seconds", obs.DurationBuckets()).Count() > 0
		})
		close(mob.release)
		if err := c.Wait(); err != nil {
			t.Fatalf("group of %d: run did not survive the edge kill: %v", group, err)
		}
		for i, v := range c.GlobalModel() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("global model[%d] = %v after failover run", i, v)
			}
		}
		if c.Failovers() < 1 {
			t.Fatalf("failovers = %d, want >= 1", c.Failovers())
		}
		if s := c.Stranded(); len(s) != 0 {
			t.Fatalf("group of %d: devices stranded after failover: %v", group, s)
		}
		// Three joins bump the epoch to 3; the death bumps it past that.
		if ep := c.MembershipEpoch(); ep < 4 {
			t.Fatalf("membership epoch %d, want >= 4 after 3 joins + 1 death", ep)
		}
		if got := reg.Counter("fednet_edge_failovers_total").Value(); got < 1 {
			t.Fatalf("fednet_edge_failovers_total = %d, want >= 1", got)
		}
		if c.Rehomed() < 1 {
			t.Fatalf("rehomed = %d, want >= 1 (devices lived on edge 2)", c.Rehomed())
		}
		total := 0
		for _, r := range c.DeviceRounds() {
			total += r
		}
		if total == 0 {
			t.Fatal("no device trained across the failover")
		}
		t.Logf("group of %d: %d failovers, %d re-homed, epoch %d, %d device trainings",
			group, c.Failovers(), c.Rehomed(), c.MembershipEpoch(), total)
	}
}

// TestClusterEdgeRejoin kills an edge, waits for the failover, restarts
// it and checks the cloud readmits it under a bumped epoch — and that a
// lease from a stale incarnation is fenced (counted and its connection
// closed) rather than resurrecting the dead member. The run is held open
// after round 2 until the restarted edge has registered, so the cloud
// still listens for the zombie and admits the newcomer at a boundary.
func TestClusterEdgeRejoin(t *testing.T) {
	mob := holdAt(mobility.NewMarkovRing(3, 9, 0.3, 7), 3)
	cfg := membershipClusterConfig(t, 20, mob)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.KillEdge(1)
	waitFor(t, 10*time.Second, "edge 1 declared dead", func() bool {
		for _, e := range c.DownEdges() {
			if e == 1 {
				return true
			}
		}
		return false
	})
	epochAtDeath := c.MembershipEpoch()

	// A zombie of the dead incarnation phones home: its lease must be
	// rejected as stale and the connection closed by the cloud.
	conn, err := net.Dial("tcp", c.cloud.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(conn, MsgLease, Lease{EdgeID: 1, Epoch: 1}, nil); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadMsg(conn, &struct{}{}); err == nil {
		t.Fatal("cloud answered a stale lease instead of closing the connection")
	}
	conn.Close()
	if got := reg.Counter("fednet_stale_frames_total").Value(); got < 1 {
		t.Fatalf("fednet_stale_frames_total = %d, want >= 1 after the zombie lease", got)
	}

	if err := c.RestartEdge(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the restarted edge 1 to register", func() bool { return len(c.cloud.ms.joinCh) > 0 })
	close(mob.release)
	waitFor(t, 10*time.Second, "edge 1 readmitted", func() bool {
		for _, e := range c.DownEdges() {
			if e == 1 {
				return false
			}
		}
		return c.MembershipEpoch() > epochAtDeath
	})
	if err := c.Wait(); err != nil {
		t.Fatalf("run did not survive kill+rejoin: %v", err)
	}
	if got := reg.Counter("fednet_edge_rejoins_total").Value(); got < 1 {
		t.Fatalf("fednet_edge_rejoins_total = %d, want >= 1", got)
	}
	if s := c.Stranded(); len(s) != 0 {
		t.Fatalf("devices stranded after rejoin: %v", s)
	}
	t.Logf("rejoin run: epoch %d (death at %d), %d failovers, %d re-homed",
		c.MembershipEpoch(), epochAtDeath, c.Failovers(), c.Rehomed())
}

// TestDetectorDeterministic drives the failure detector by hand: with
// SuspectMisses=2 and DeadMisses=4 a member is aged out after exactly
// four tick sweeps without a lease, a lease resets the count, and stale
// leases (wrong epoch, unknown or dead member) are rejected.
func TestDetectorDeterministic(t *testing.T) {
	deadCh := make(chan int, 1)
	c, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: 1, Rounds: 1, CloudInterval: 1,
		Membership: MembershipConfig{Enabled: true, SuspectMisses: 2, DeadMisses: 4},
		OnEdgeDown: func(e int) { deadCh <- e },
		Obs:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.ln.Close()
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()

	ms := newMembership(0)
	c.ms = ms
	ms.mu.Lock()
	ms.epoch = 1
	ms.members[7] = &member{id: 7, epoch: 1, conn: p1}
	ms.mu.Unlock()

	if !ms.recordLease(7, 1) {
		t.Fatal("fresh lease for the live incarnation rejected")
	}
	if ms.recordLease(7, 2) {
		t.Fatal("lease with a wrong epoch accepted")
	}
	if ms.recordLease(8, 1) {
		t.Fatal("lease for an unknown member accepted")
	}

	// The credited beat absorbs the first sweep; three more sweeps leave
	// the member suspected (2 misses) but alive at 3 misses.
	for i := 0; i < 4; i++ {
		c.detectOnce(ms)
	}
	if len(ms.alive()) != 1 {
		t.Fatalf("member dead after 3 misses with DeadMisses=4")
	}
	// A lease heals the suspicion and resets the miss count…
	if !ms.recordLease(7, 1) {
		t.Fatal("lease for a suspected member rejected")
	}
	for i := 0; i < 4; i++ {
		c.detectOnce(ms)
	}
	if len(ms.alive()) != 1 {
		t.Fatal("member died 3 sweeps after a fresh lease")
	}
	// …and the 4th consecutive miss kills it.
	c.detectOnce(ms)
	select {
	case e := <-deadCh:
		if e != 7 {
			t.Fatalf("OnEdgeDown fired for edge %d, want 7", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnEdgeDown never fired after DeadMisses sweeps")
	}
	if len(ms.alive()) != 0 {
		t.Fatal("dead member still listed alive")
	}
	if ms.recordLease(7, 1) {
		t.Fatal("lease for a dead incarnation accepted")
	}
	if ms.currentEpoch() != 2 {
		t.Fatalf("epoch %d after one death from 1, want 2", ms.currentEpoch())
	}
	// Death is once per incarnation: a second sweep must not re-kill.
	c.detectOnce(ms)
	select {
	case e := <-deadCh:
		t.Fatalf("OnEdgeDown fired twice (edge %d)", e)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestClusterMembershipDisabledInert pins the default path: without
// Membership.Enabled no membership series may move and the epoch stays
// zero. (Bit-identity of disabled runs is pinned in internal/hfl, where
// execution is deterministic.)
func TestClusterMembershipDisabledInert(t *testing.T) {
	mob := mobility.NewMarkovRing(3, 9, 0.3, 7)
	cfg := membershipClusterConfig(t, 9, mob)
	cfg.Membership = MembershipConfig{}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"fednet_edge_failovers_total", "fednet_edge_rejoins_total",
		"fednet_lease_misses_total", "fednet_stale_frames_total",
		"fednet_rehomed_devices_total",
	} {
		if got := reg.Counter(series).Value(); got != 0 {
			t.Fatalf("%s = %d with membership disabled", series, got)
		}
	}
	if c.MembershipEpoch() != 0 || c.Failovers() != 0 || c.Rehomed() != 0 {
		t.Fatalf("membership accounting moved while disabled: epoch=%d failovers=%d rehomed=%d",
			c.MembershipEpoch(), c.Failovers(), c.Rehomed())
	}
}

// TestDeviceReconnectGenStorm hammers one device with back-to-back
// Connect calls alternating between two fake edges. The generation
// counter must let the latest call win — stale dials discard their
// connections instead of clobbering the newest one — and the device must
// end cleanly attached, then cleanly detached.
func TestDeviceReconnectGenStorm(t *testing.T) {
	fakeEdge := func() (string, func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(conn net.Conn) {
					defer conn.Close()
					var reg RegisterMux
					if typ, _, err := ReadMsg(conn, &reg); err != nil || typ != MsgRegisterMux || len(reg.Devices) != 1 {
						return
					}
					if err := WriteMsg(conn, MsgRegisterAck, RegisterAck{EdgeID: 0}, nil); err != nil {
						return
					}
					// Hold the connection open until shutdown; serve nothing.
					<-stop
				}(conn)
			}
		}()
		return ln.Addr().String(), func() { close(stop); ln.Close() }
	}
	addrA, stopA := fakeEdge()
	addrB, stopB := fakeEdge()
	defer stopA()
	defer stopB()

	dev := testClient(t, 1)
	for i := 0; i < 40; i++ {
		addr, id := addrA, 0
		if i%2 == 1 {
			addr, id = addrB, 1
		}
		if err := dev.Connect(1, id, addr); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	if !dev.Connected(1) {
		t.Fatal("device not attached after the connect storm")
	}
	done := make(chan struct{})
	go func() { dev.Disconnect(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Disconnect hung after the connect storm")
	}
	if dev.Connected(1) {
		t.Fatal("device still reports attached after Disconnect")
	}
}
