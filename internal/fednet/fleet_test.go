package fednet

// Fleet tests: devices move only at the cloud's round boundaries, so every
// round selects from exactly the membership mobility gave for it, through
// StartCluster and through a cloud, edges and fleet started one by one as
// middled starts them; a stopped fleet leaves no device behind; and a
// move's leave is acknowledged, so the source edge has let the device go
// when Connect returns.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"middle/internal/core"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// spyStrategy records the candidates every edge's Select saw, by round.
type spyStrategy struct {
	hfl.Strategy
	mu   sync.Mutex
	seen map[[2]int][]int // (round, edge) → candidates
}

func (s *spyStrategy) Select(v hfl.View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	s.mu.Lock()
	s.seen[[2]int{v.Step(), edge}] = slices.Clone(candidates)
	s.mu.Unlock()
	return s.Strategy.Select(v, edge, candidates, k, rng)
}

// boundaryTrace moves four devices between two edges: row 0 is where
// they attach, row r where they are during round r+1.
var boundaryTrace = &mobility.Trace{Edges: 2, Memberships: [][]int{
	{0, 0, 1, 1},
	{1, 0, 1, 0},
	{1, 1, 0, 0},
	{0, 1, 0, 1},
	{0, 0, 0, 0},
	{1, 0, 0, 1},
}}

// checkCandidates fails unless every edge selected, in every round, from
// exactly the devices the trace puts there.
func checkCandidates(t *testing.T, what string, spy *spyStrategy) {
	t.Helper()
	for r := 1; r < boundaryTrace.Steps(); r++ {
		for e := range boundaryTrace.Edges {
			var want []int
			for m, at := range boundaryTrace.Memberships[r-1] {
				if at == e {
					want = append(want, m)
				}
			}
			if got := spy.seen[[2]int{r, e}]; !slices.Equal(got, want) {
				t.Errorf("%s: round %d, edge %d selected from %v, want %v", what, r, e, got, want)
			}
		}
	}
}

// TestFleetMovesAtBoundaries: with a scripted trace, each round's Select
// sees the trace's membership for that round — no device selected at an
// edge it has left, none missing where it has arrived — at any group size,
// cold and warm, whether StartCluster launches the roles or the test does.
func TestFleetMovesAtBoundaries(t *testing.T) {
	rounds := boundaryTrace.Steps() - 1
	for _, mux := range []int{1, 2} {
		spy := &spyStrategy{Strategy: core.NewGeneral(), seen: map[[2]int][]int{}}
		cfg := scaleFixtureConfig(t, boundaryTrace.Replay(), rounds)
		cfg.Strategy, cfg.Mux, cfg.K = spy, mux, 4
		c, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		checkCandidates(t, fmt.Sprintf("StartCluster, mux %d", mux), spy)

		// The same roles by hand, as middled runs them, with live migration.
		spy = &spyStrategy{Strategy: core.NewGeneral(), seen: map[[2]int][]int{}}
		cfg.Strategy, cfg.Mobility = spy, boundaryTrace.Replay()
		_, _, f, errs := byHand(t, cfg)
		go func() { errs <- f.Run() }()
		for range 4 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		checkCandidates(t, fmt.Sprintf("by hand, mux %d", mux), spy)
	}
}

// byHand starts cfg's deployment one role at a time, as middled starts
// it, with live migration: a cloud, an edge per mobility edge, and a
// fleet whose devices are attached. The cloud's and the edges' Run errors
// arrive on errs; the caller runs the fleet.
func byHand(t *testing.T, cfg ClusterConfig) (*Cloud, []*Edge, *Fleet, chan error) {
	t.Helper()
	nEdges := cfg.Mobility.NumEdges()
	cloud, err := NewCloud(CloudConfig{Addr: "127.0.0.1:0", Edges: nEdges, Rounds: cfg.Rounds, CloudInterval: cfg.CloudInterval,
		InitModel: cfg.Factory(tensor.Split(cfg.Seed, 0)).ParamVector(), Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, nEdges+2)
	go func() { errs <- cloud.Run() }()
	var edges []*Edge
	var addrs []EdgeAddr
	for id := range nEdges {
		e, err := NewEdge(EdgeConfig{EdgeID: id, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", K: cfg.K,
			Strategy: cfg.Strategy, Seed: cfg.Seed, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- e.Run() }()
		edges, addrs = append(edges, e), append(addrs, EdgeAddr{ID: id, Addr: e.Addr()})
	}
	f, err := NewFleet(FleetConfig{CloudAddr: cloud.Addr(), Edges: addrs, Mobility: cfg.Mobility,
		Partition: cfg.Partition, Factory: cfg.Factory, Optimizer: cfg.Optimizer, Mux: cfg.Mux, LiveMigration: true,
		DeviceMuxConfig: DeviceMuxConfig{LocalSteps: cfg.LocalSteps, BatchSize: cfg.BatchSize, Strategy: cfg.Strategy,
			Seed: cfg.Seed, Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, edges, f, errs
}

// TestFleetStopDetachesMidRun: Stop, which middled's devices role calls on
// SIGTERM, ends the fleet's Run mid-run with every device off every edge;
// the cloud drops the fleet and goes on until its own Stop.
func TestFleetStopDetachesMidRun(t *testing.T) {
	spy := &spyStrategy{Strategy: core.NewGeneral(), seen: map[[2]int][]int{}}
	cfg := scaleFixtureConfig(t, mobility.NewMarkovRing(2, 4, 0.5, 3), 1_000_000)
	cfg.Strategy = spy
	cloud, edges, f, errs := byHand(t, cfg)
	ran := make(chan error, 1)
	go func() { ran <- f.Run() }()
	waitFor(t, 10*time.Second, "round 5", func() bool {
		spy.mu.Lock()
		defer spy.mu.Unlock()
		return len(spy.seen[[2]int{5, 0}]) > 0 || len(spy.seen[[2]int{5, 1}]) > 0
	})
	f.Stop()
	if err := <-ran; err != nil {
		t.Fatalf("stopped fleet: %v", err)
	}
	for _, e := range edges {
		waitFor(t, 5*time.Second, "the edges to let the fleet's devices go", func() bool { return len(registered(e)) == 0 })
	}
	select {
	case err := <-errs:
		t.Fatalf("a role ended with the fleet: %v", err)
	default:
	}
	cloud.Stop()
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMoveLeavesBeforeConnectReturns: Connect moving a device off an edge
// returns only once that edge has let it go, whether a sibling stays on
// the connection or the device was its last (the client then closes it).
// The test holds the source edge's lock through the move: Connect must
// wait for it, and afterwards the source no longer lists the device.
func TestMoveLeavesBeforeConnectReturns(t *testing.T) {
	var edges [2]*Edge
	for id := range edges {
		e, cc, edgeErr := edgeUnderFakeCloud(t, EdgeConfig{EdgeID: id, K: 1, Strategy: core.NewGeneral(), Seed: 1, Timeout: 3 * time.Second})
		edges[id] = e
		defer func() {
			WriteMsg(cc, MsgShutdown, struct{}{}, nil)
			<-edgeErr
		}()
	}
	for _, ids := range [][]int{{5}, {5, 6}} {
		mx := testClient(t, ids...)
		for _, id := range ids {
			if err := mx.Connect(id, 0, edges[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		// Device 5 goes 0 → 1 → 0: with a sibling, its first leave keeps
		// the connection and its second closes one.
		for move, to := range []int{1, 0} {
			src := edges[1-to]
			src.mu.Lock()
			moved := make(chan error, 1)
			go func() { moved <- mx.Connect(5, to, edges[to].Addr()) }()
			select {
			case err := <-moved:
				_, listed := src.devices[5]
				src.mu.Unlock()
				t.Fatalf("devices %v, move %d: Connect returned (%v) while the source edge held the device (listed %v)", ids, move, err, listed)
			case <-time.After(100 * time.Millisecond):
			}
			src.mu.Unlock()
			if err := <-moved; err != nil {
				t.Fatal(err)
			}
			if registered(src)[5] || !registered(edges[to])[5] {
				t.Fatalf("devices %v, move %d: source lists %v, destination %v", ids, move, registered(src), registered(edges[to]))
			}
		}
		mx.Disconnect()
	}
}
