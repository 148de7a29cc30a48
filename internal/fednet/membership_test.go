package fednet

// Self-healing membership tests: lease-driven failure detection, edge
// failover with warm device re-homing, rejoin under a bumped epoch with
// stale-incarnation fencing, and a healthy cluster staying quiet.

import (
	"math"
	"net"
	"sync"
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
		Mobility:  mob, Seed: 1, LeaseInterval: 50 * time.Millisecond,
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

// attached reports whether hosted device id has an acknowledged
// registration on a connection that is still up.
func attached(mx *DeviceMux, id int) bool {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	v := mx.virts[id]
	return v != nil && v.live
}

// edgeOf returns the edge hosted device id rides or is heading for (−1
// when detached).
func edgeOf(mx *DeviceMux, id int) int {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	return mx.virts[id].edge
}

// rehomedOff reports whether every device of c is attached, none to edge
// dead: the devices that rode it have failed over.
func rehomedOff(c *Cluster, dead int) bool {
	for m := range c.fleet.cfg.Mobility.NumDevices() {
		mx := c.fleet.clients[m/c.fleet.group]
		if !attached(mx, m) || edgeOf(mx, m) == dead {
			return false
		}
	}
	return true
}

// memberAlive reports whether edge id is a live member of c's cloud.
func memberAlive(c *Cluster, id int) bool {
	for _, m := range c.cloud.ms.alive() {
		if m.id == id {
			return true
		}
	}
	return false
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
// the cloud's lease detector, every one of its devices must re-home
// itself onto the survivors, and the run must be driven to completion
// with nobody stranded — with a client per device and with three devices
// per client alike. The kill races the first rounds and their periodic
// checkpointing on purpose — memberDead and checkpointSync share the
// membership state — and the run is held open after round 3 until the
// cloud has declared the edge dead and every device has failed over.
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
			return reg.Histogram("fednet_failover_seconds", obs.DurationBuckets()).Count() > 0 &&
				c.Failovers() > 0 && rehomedOff(c, 2)
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
// after round 1 until the restarted edge has registered, so the cloud
// still listens for the zombie and admits the newcomer at a boundary
// however long the devices of the dead edge take to fail over.
func TestClusterEdgeRejoin(t *testing.T) {
	mob := holdAt(mobility.NewMarkovRing(3, 9, 0.3, 7), 2)
	cfg := membershipClusterConfig(t, 20, mob)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.KillEdge(1)
	waitFor(t, 10*time.Second, "edge 1 declared dead", func() bool { return !memberAlive(c, 1) })
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
	// The cloud, held in a boundary's wait, admits it at once.
	waitFor(t, 10*time.Second, "the restarted edge 1 to register", func() bool {
		return len(c.cloud.ms.joinCh) > 0 || memberAlive(c, 1)
	})
	close(mob.release)
	waitFor(t, 10*time.Second, "edge 1 readmitted", func() bool {
		return memberAlive(c, 1) && c.MembershipEpoch() > epochAtDeath
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

// TestDeviceFailsOverOnItsOwn drives the one failover path without a
// cluster: a client whose Failover list names three real edges under a
// cloud (and one closed address) re-homes its devices itself. Each tries
// the candidates in its own rotation — from its id modulo the list's
// length, skipping the failed edge and any it cannot reach — so a Connect
// to the closed address lands on the first reachable candidate of the
// rotation, and the devices of a killed edge spread over both survivors.
// A device no candidate takes is stranded until a later Connect.
func TestDeviceFailsOverOnItsOwn(t *testing.T) {
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	var addrs [3]string
	for e := range addrs {
		addrs[e] = reserve()
	}
	dead := reserve()
	failover := []EdgeAddr{{0, addrs[0]}, {1, addrs[1]}, {2, addrs[2]}, {3, dead}}
	reg := obs.NewRegistry()
	train := data.GenerateImagesSplit(data.FastImageProfile(2), 20, 5, 5)
	var hosted []MuxDevice
	for id := range 9 {
		hosted = append(hosted, MuxDevice{DeviceID: id, Indices: []int{0, 1, 2}})
	}
	mx, err := NewDeviceMux(DeviceMuxConfig{
		Devices: hosted, Dataset: train,
		pool: solo(func(rng *tensor.RNG) *nn.Network {
			return nn.NewMLP(nn.MLPConfig{In: train.SampleSize(), Classes: 2}, rng)
		}, hfl.OptimizerSpec{Kind: hfl.OptSGD, LR: 0.1}.New()),
		Timeout: 2 * time.Second, RetryBase: time.Millisecond,
		Failover: failover, Obs: reg, population: len(hosted),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Disconnect()
	stranded := reg.Gauge("fednet_stranded_devices")

	// No edge is up yet: device 8 tries every candidate and is stranded.
	if err := mx.Connect(8, 3, dead); err == nil {
		t.Fatal("a Connect with no reachable candidate succeeded")
	}
	if got, s := stranded.Value(), mx.strandedDevices(nil); got != 1 || len(s) != 1 || s[0] != 8 {
		t.Fatalf("stranded gauge %v, devices %v; want 1, [8]", got, s)
	}

	cloud, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: 3, Rounds: 1, CloudInterval: 1,
		InitModel: []float64{0}, Timeout: 5 * time.Second, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No fleet registers, so no round runs: only the devices move.
	var runs sync.WaitGroup
	runs.Add(1)
	go func() { defer runs.Done(); cloud.Run() }()
	var edges [3]*Edge
	for e := range edges {
		if edges[e], err = NewEdge(EdgeConfig{EdgeID: e, CloudAddr: cloud.Addr(), Addr: addrs[e], K: 2,
			Strategy: core.NewGeneral(), Seed: 1, Timeout: 5 * time.Second, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		runs.Add(1)
		go func(e *Edge) { defer runs.Done(); e.Run() }(edges[e])
	}
	defer func() {
		cloud.Stop()
		runs.Wait()
	}()
	waitFor(t, 10*time.Second, "the cloud to admit three edges", func() bool { return len(cloud.ms.alive()) == 3 })

	// The closed address is edge 3: device 3's rotation starts there and
	// skips it, device 6's starts at edge 2.
	for id, want := range map[int]int{3: 0, 6: 2} {
		if err := mx.Connect(id, 3, dead); err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
		if got := edgeOf(mx, id); got != want || !registered(edges[want])[id] {
			t.Fatalf("device %d landed on edge %d (registered at %d: %v), want edge %d",
				id, got, want, registered(edges[want])[id], want)
		}
	}
	if err := mx.Connect(8, 0, addrs[0]); err != nil {
		t.Fatal(err)
	}
	if got, s := stranded.Value(), mx.strandedDevices(nil); got != 0 || len(s) != 0 {
		t.Fatalf("stranded gauge %v, devices %v after device 8 attached; want 0, none", got, s)
	}

	// Five devices ride edge 2 when it dies. Rotations from 0 and 4 reach
	// edge 0, from 1 and 5 edge 1; device 6's passes edge 2 and the closed
	// address before it wraps to edge 0.
	for _, id := range []int{0, 1, 4, 5} {
		if err := mx.Connect(id, 2, addrs[2]); err != nil {
			t.Fatal(err)
		}
	}
	edges[2].Kill()
	want := map[int]int{0: 0, 4: 0, 6: 0, 1: 1, 5: 1}
	waitFor(t, 10*time.Second, "edge 2's devices to fail over", func() bool {
		for id, e := range want {
			if !attached(mx, id) || edgeOf(mx, id) != e {
				return false
			}
		}
		return true
	})
	for id, e := range want {
		if !registered(edges[e])[id] {
			t.Errorf("device %d is not registered at edge %d after the failover", id, e)
		}
	}
	if got := reg.Histogram("fednet_failover_seconds", obs.DurationBuckets()).Count(); got < 1 {
		t.Errorf("fednet_failover_seconds count %d, want >= 1", got)
	}
	// Two Connects to the closed address, five devices off the dead edge.
	if got, n := reg.Counter("fednet_rehomed_devices_total").Value(), mx.rehomed(); got != 7 || n != 7 {
		t.Errorf("fednet_rehomed_devices_total %d, client count %d; want 7", got, n)
	}
	if got, s := stranded.Value(), mx.strandedDevices(nil); got != 0 || len(s) != 0 {
		t.Errorf("stranded gauge %v, devices %v after the failover; want 0, none", got, s)
	}
}

// TestDetectorDeterministic drives the failure detector by hand: a member
// is suspected after two sweeps without a lease and aged out after
// exactly four, a lease resets the count, and stale leases (wrong epoch,
// unknown or dead member) are rejected.
func TestDetectorDeterministic(t *testing.T) {
	c, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: 1, Rounds: 1, CloudInterval: 1,
		Obs: obs.NewRegistry(),
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
		t.Fatalf("member dead after 3 misses")
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
	if !ms.members[7].dead || c.deaths() != 1 {
		t.Fatalf("after four missed sweeps: edge 7 dead %v, %d deaths, want dead and 1", ms.members[7].dead, c.deaths())
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
	if c.deaths() != 1 {
		t.Fatalf("%d deaths after a second sweep, want 1", c.deaths())
	}
}

// TestClusterHealthyStaysQuiet runs a fault-free cluster under the
// real-clock detector at the default 500 ms lease, held open after round
// 3 for longer than an edge may stay silent: nobody fails over, is
// re-homed, rejoins or is fenced, and the epoch counts the initial
// admissions only. Lease misses are not pinned — the last edge admitted
// can race the first sweep by one.
func TestClusterHealthyStaysQuiet(t *testing.T) {
	mob := holdAt(mobility.NewMarkovRing(3, 9, 0.3, 7), 4)
	cfg := membershipClusterConfig(t, 9, mob)
	cfg.LeaseInterval = 0
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc((deadMisses+2)*500*time.Millisecond, func() { close(mob.release) })
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"fednet_edge_failovers_total", "fednet_edge_rejoins_total",
		"fednet_stale_frames_total", "fednet_rehomed_devices_total",
	} {
		if got := reg.Counter(series).Value(); got != 0 {
			t.Errorf("%s = %d in a healthy run", series, got)
		}
	}
	if alive := len(c.cloud.ms.alive()); c.Failovers() != 0 || c.Rehomed() != 0 || alive != 3 {
		t.Errorf("healthy run: %d failovers, %d re-homed, %d of 3 edges alive", c.Failovers(), c.Rehomed(), alive)
	}
	if ep := c.MembershipEpoch(); ep != 3 {
		t.Errorf("membership epoch %d, want 3 (one per initial admission)", ep)
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
					// Serve nothing but the echoes of leaves until the client
					// closes or shutdown.
					go func() { <-stop; conn.Close() }()
					for {
						var leave DeviceLeave
						if typ, _, err := ReadMsg(conn, &leave); err != nil || typ != MsgDeviceLeave ||
							WriteMsg(conn, MsgDeviceLeave, leave, nil) != nil {
							return
						}
					}
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
	if !attached(dev, 1) {
		t.Fatal("device not attached after the connect storm")
	}
	done := make(chan struct{})
	go func() { dev.Disconnect(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Disconnect hung after the connect storm")
	}
	if attached(dev, 1) {
		t.Fatal("device still reports attached after Disconnect")
	}
}
