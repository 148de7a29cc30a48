package fednet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
	"middle/internal/tensor"
)

// ClusterConfig assembles a full in-process deployment: one cloud, E
// edges and M devices on loopback TCP, with devices migrating between
// edge servers according to a mobility model at round boundaries.
type ClusterConfig struct {
	Rounds        int
	K             int
	LocalSteps    int
	BatchSize     int
	CloudInterval int
	Strategy      hfl.Strategy
	Partition     *data.Partition
	Factory       func(rng *tensor.RNG) *nn.Network
	Optimizer     hfl.OptimizerSpec
	Mobility      mobility.Model
	Seed          int64
	Logf          func(format string, args ...any)
	// Timeout bounds every component's network operations (default 30 s;
	// chaos tests lower it so failures resolve quickly).
	Timeout time.Duration
	// Quorum and RoundDeadline configure the edges' graceful
	// degradation (see EdgeConfig).
	Quorum        int
	RoundDeadline time.Duration
	// CheckpointDir configures cloud crash recovery (see CloudConfig).
	// EdgeCheckpoints additionally makes every edge checkpoint its round
	// state into the same directory (distinguished by State.Name),
	// enabling edge crash recovery.
	CheckpointDir   string
	EdgeCheckpoints bool
	// Mux is the group size of the device clients: each hosts that many
	// devices (one connection and goroutine per edge per client). ≤ 1
	// gives every device a client of its own. Whatever the group size,
	// every client trains on the cluster's one trainer pool, a network
	// and an optimizer per core (GOMAXPROCS, at most one per device), so
	// a cohort trains in parallel up to the cores.
	Mux int
	// LiveMigration makes a moving device arrive warm: it leaves its edge
	// and registers at the next one with its own state (ConnectRehome) —
	// its model and optimizer moments stay on the device — so Eq. 9 blends
	// and its optimizer resumes there. Off by default: a mover leaves and
	// registers cold, and the edge resets its carried model.
	LiveMigration bool
	// Aggregator selects the combination rule used at both the edges
	// (Eq. 6) and the cloud (Eq. 7); the zero value means the
	// bit-identical weighted mean.
	Aggregator robust.AggregatorKind
	// Validate screens received models (NaN/Inf, optional norm bound) at
	// both tiers before aggregation; the zero value disables validation.
	Validate robust.ValidatorConfig
	// SelectionNormCap caps the update norm admitted into Eq. 12
	// selection scores (0 = uncapped; see EdgeConfig).
	SelectionNormCap float64
	// Faults, when non-nil, builds one shared fault injector for the
	// whole deployment; its errors, and the edges they take down, are
	// tolerated by Wait.
	Faults *FaultConfig
	// LeaseInterval is the edges' heartbeat period and the cloud failure
	// detector's tick (see CloudConfig). Every device client lists every
	// edge as a failover candidate, so the devices of an edge that dies
	// re-home themselves to the survivors, warm, carrying their local
	// state (DeviceMuxConfig.Failover); a killed edge may later
	// RestartEdge and rejoin under a bumped membership epoch.
	LeaseInterval time.Duration
	// Obs, when set, is threaded into every component so one registry
	// reports the whole deployment's fednet_* series.
	Obs *obs.Registry
	// Trace, when set, is threaded into every component so one collector
	// holds the full device→edge→cloud span tree of every round.
	Trace *obs.Trace
}

// Cluster is a running deployment.
type Cluster struct {
	cloud    *Cloud
	edges    []*Edge
	edgeCfgs []EdgeConfig // templates for RestartEdge
	// clients host the devices in id order, group devices each: device m
	// rides clients[m/group].
	clients  []*DeviceMux
	group    int
	devices  int
	injector *FaultInjector
	faulty   bool // fault injection enabled: edge failures are expected
	logf     func(format string, args ...any)

	wg         sync.WaitGroup
	mu         sync.Mutex
	errs       []error
	tolerated  []error
	moveErrs   int
	moveErrCtr *obs.Counter
	// migrations tallies the arrivals of moves with live migration by
	// outcome (see Edge.arrival), mirroring fednet_migrations_total
	// (migrationCtr) so summaries stay truthful with metrics disabled;
	// handoverSpan times the warm ones from leave to registration ack.
	migrations   map[string]int
	migrationCtr map[string]*obs.Counter
	handoverSpan *obs.Span
}

// StartCluster builds and starts the deployment. The mobility model's
// device count must match the partition's. The call returns once all
// components are connected, which is what releases the first round; use
// Wait to block until training completes.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Partition.NumDevices() != cfg.Mobility.NumDevices() {
		return nil, fmt.Errorf("fednet: partition has %d devices, mobility %d", cfg.Partition.NumDevices(), cfg.Mobility.NumDevices())
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	numEdges := cfg.Mobility.NumEdges()
	numDevices := cfg.Mobility.NumDevices()
	c := &Cluster{
		logf: cfg.Logf, devices: numDevices,
		moveErrCtr:   cfg.Obs.Counter("fednet_move_errors_total"),
		migrations:   map[string]int{},
		migrationCtr: map[string]*obs.Counter{},
		handoverSpan: cfg.Obs.Span("fednet_handover_seconds"),
		group:        max(1, cfg.Mux),
	}
	for _, out := range []string{"ok", "fallback", "rejected"} {
		c.migrationCtr[out] = cfg.Obs.Counter("fednet_migrations_total", "outcome", out)
	}
	if cfg.Faults != nil {
		fc := *cfg.Faults
		if fc.Obs == nil {
			fc.Obs = cfg.Obs
		}
		c.injector = NewFaultInjector(fc)
		c.faulty = true
	}

	// One trainer per core for every client, no more than there are
	// devices to train at once; the initial model is the first network's,
	// drawn from the seed before any training.
	pool := newTrainerPool(max(1, min(runtime.GOMAXPROCS(0), numDevices)),
		func() *nn.Network { return cfg.Factory(tensor.Split(cfg.Seed, 0)) }, cfg.Optimizer.New)
	tw := <-pool
	init := tw.Net.ParamVector()
	pool <- tw
	cfg.Mobility.Reset()
	membership := append([]int(nil), cfg.Mobility.Step()...) // kept across rounds: Step's slice is the model's

	// Device migration at round boundaries, driven by the cloud: the
	// movers of one boundary move concurrently (see move), and all are
	// done before the next round starts.
	onRound := func(round int) {
		next := append([]int(nil), cfg.Mobility.Step()...)
		var moves sync.WaitGroup
		for m, e := range next {
			if e != membership[m] {
				moves.Add(1)
				go func() {
					defer moves.Done()
					c.move(m, e, cfg.LiveMigration)
				}()
			}
		}
		moves.Wait()
		membership = next
	}

	cloud, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: numEdges, Rounds: cfg.Rounds,
		CloudInterval: cfg.CloudInterval, InitModel: init,
		Timeout: cfg.Timeout, LeaseInterval: cfg.LeaseInterval,
		CheckpointDir: cfg.CheckpointDir, Aggregator: cfg.Aggregator, Validate: cfg.Validate,
		Logf: cfg.Logf, OnRound: onRound, Obs: cfg.Obs, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	c.cloud = cloud
	// Rounds wait for the initial attach at the end of this function: a
	// short run must not burn its rounds (and its edges exit, closing
	// their listeners) while devices are still dialing. The gate opens on
	// every return; Stop passes it too.
	cloud.gate = make(chan struct{})
	defer close(cloud.gate)

	for e := 0; e < numEdges; e++ {
		edgeCkptDir := ""
		if cfg.EdgeCheckpoints {
			edgeCkptDir = cfg.CheckpointDir
		}
		ecfg := EdgeConfig{
			EdgeID: e, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0",
			K: cfg.K, Strategy: cfg.Strategy, Seed: cfg.Seed, Logf: cfg.Logf,
			Timeout: cfg.Timeout, Quorum: cfg.Quorum, RoundDeadline: cfg.RoundDeadline,
			Aggregator: cfg.Aggregator, Validate: cfg.Validate,
			SelectionNormCap: cfg.SelectionNormCap, LiveMigration: cfg.LiveMigration,
			CheckpointDir: edgeCkptDir, Faults: c.injector, Obs: cfg.Obs, Trace: cfg.Trace,
		}
		edge, err := NewEdge(ecfg)
		if err != nil {
			return nil, err
		}
		c.edges = append(c.edges, edge)
		c.edgeCfgs = append(c.edgeCfgs, ecfg)
	}
	// Every edge keeps its address for the whole run (RestartEdge listens
	// again on it), so one candidate list serves every client.
	failover := make([]EdgeAddr, numEdges)
	for e, edge := range c.edges {
		failover[e] = EdgeAddr{ID: e, Addr: edge.Addr()}
	}
	for lo := 0; lo < numDevices; lo += c.group {
		var hosted []MuxDevice
		for m := lo; m < min(lo+c.group, numDevices); m++ {
			hosted = append(hosted, MuxDevice{DeviceID: m, Indices: cfg.Partition.Shard(m)})
		}
		mx, err := NewDeviceMux(DeviceMuxConfig{
			Devices: hosted, Dataset: cfg.Partition.Dataset, pool: pool,
			LocalSteps: cfg.LocalSteps, BatchSize: cfg.BatchSize,
			Strategy: cfg.Strategy, Seed: cfg.Seed, Timeout: cfg.Timeout,
			Failover: failover, Logf: cfg.Logf, Faults: c.injector, Obs: cfg.Obs, Trace: cfg.Trace,
		})
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, mx)
	}

	// Launch servers.
	c.wg.Add(1 + numEdges)
	go func() {
		defer c.wg.Done()
		if err := cloud.Run(); err != nil {
			// Cloud errors are always real: they mean the run itself
			// failed (even under injection, losing the coordinator or
			// every edge is not graceful degradation).
			c.recordErr(fmt.Errorf("cloud: %w", err), false)
		}
	}()
	for _, e := range c.edges {
		go func(e *Edge) {
			defer c.wg.Done()
			if err := e.Run(); err != nil {
				// Edge failures are expected casualties when faults are
				// being injected (the cloud degrades around them) or when
				// this incarnation was deliberately killed for a chaos
				// scenario; injected errors are tolerated regardless.
				tolerated := c.faulty || errors.Is(err, ErrInjected) || e.Killed()
				c.recordErr(fmt.Errorf("edge %d: %w", e.cfg.EdgeID, err), tolerated)
			}
		}(e)
	}

	// Attach devices at their initial edges.
	for m, e := range membership {
		if err := c.clients[m/c.group].Connect(m, e, c.edges[e].Addr()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// edgeAt returns the current *Edge for slot i (RestartEdge replaces
// slice elements, so unguarded indexing would race).
func (c *Cluster) edgeAt(i int) *Edge {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges[i]
}

// move takes device m to edge dst at a round boundary: it leaves the
// edge it rides and registers at dst, with live migration warm, carrying
// its own state; a dst that stays unreachable sends it on to a failover
// candidate (see DeviceMux.Connect). Only a device that no candidate took
// is counted a failed move (and stranded). A warm move's outcome is the
// verdict of the edge it arrived at on what the device carried.
func (c *Cluster) move(m, dst int, live bool) {
	start := time.Now()
	mx := c.clients[m/c.group]
	// Off the candidate set of the edge the device rides — which its
	// client knows; after a failover it is not the one mobility last sent
	// it to — before it registers anywhere else: its leave notice or
	// closing socket reaches that edge in its own time.
	if src := mx.edgeOf(m); src >= 0 && src != dst {
		c.edgeAt(src).release(m)
	}
	connect := mx.Connect
	if live {
		connect = mx.ConnectRehome
	}
	if err := connect(m, dst, c.edgeAt(dst).Addr()); err != nil {
		c.mu.Lock()
		c.moveErrs++
		c.mu.Unlock()
		c.logf("cluster: device %d failed to move to edge %d (stranded until next move): %v", m, dst, err)
		c.moveErrCtr.Inc()
		return
	}
	if !live {
		return
	}
	at := mx.edgeOf(m)
	if at < 0 {
		at = dst // its connection failed since: it arrived nowhere
	}
	out := c.edgeAt(at).arrival(m)
	if out == "" {
		return // it never trained: there was nothing to carry
	}
	if out == "ok" {
		c.handoverSpan.Observe(time.Since(start))
	}
	c.mu.Lock()
	c.migrations[out]++
	c.mu.Unlock()
	c.migrationCtr[out].Inc()
}

// KillEdge abruptly tears edge e down — listener, cloud link, and device
// connections all close with no drain or checkpoint, the in-process
// equivalent of SIGKILL. The cloud notices the broken round connection
// or the missed leases and declares the edge dead; its devices fail over
// on their own. The edge's Run error is recorded as a tolerated
// casualty, not a run failure.
func (c *Cluster) KillEdge(e int) {
	c.edgeAt(e).Kill()
}

// RestartEdge brings a previously killed edge back: a fresh Edge,
// listening again on the killed one's address, re-registers with the
// cloud, which readmits it under a bumped membership epoch and serves it
// the current global model for catch-up; with EdgeCheckpoints enabled the
// new process also restores its round state from its named checkpoint
// first. Devices reach it again as they did before the kill.
func (c *Cluster) RestartEdge(e int) error {
	c.mu.Lock()
	ecfg := c.edgeCfgs[e]
	ecfg.Addr = c.edges[e].Addr()
	c.mu.Unlock()
	edge, err := NewEdge(ecfg)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.edges[e] = edge
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := edge.Run(); err != nil {
			tolerated := c.faulty || errors.Is(err, ErrInjected) || edge.Killed()
			c.recordErr(fmt.Errorf("edge %d: %w", e, err), tolerated)
		}
	}()
	return nil
}

// Stop asks the cloud for a graceful stop at the next round boundary
// (final checkpoint included). Use Wait to collect the shutdown.
func (c *Cluster) Stop() { c.cloud.Stop() }

func (c *Cluster) recordErr(err error, tolerated bool) {
	c.mu.Lock()
	if tolerated {
		c.tolerated = append(c.tolerated, err)
	} else {
		c.errs = append(c.errs, err)
	}
	c.mu.Unlock()
}

// Wait blocks until the cloud and all edges terminate, disconnects the
// devices, and returns the first real component error (nil on success).
// Injected/expected fault casualties are not surfaced as errors — they
// are counted and available through ToleratedFaults.
func (c *Cluster) Wait() error {
	c.wg.Wait()
	for _, mx := range c.clients {
		mx.Disconnect()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) > 0 {
		return c.errs[0]
	}
	return nil
}

// ToleratedFaults reports how many component failures were classified
// as injected/expected and absorbed rather than surfaced by Wait.
func (c *Cluster) ToleratedFaults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tolerated)
}

// GlobalModel returns the cloud's current global model.
func (c *Cluster) GlobalModel() []float64 { return c.cloud.GlobalModel() }

// DeviceRounds returns how many rounds each device trained (diagnostics).
func (c *Cluster) DeviceRounds() []int {
	out := make([]int, c.devices)
	for m := range out {
		out[m] = c.clients[m/c.group].DeviceRounds(m)
	}
	return out
}

// MoveErrors reports how many device migrations failed.
func (c *Cluster) MoveErrors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.moveErrs
}

// Migrations reports how the movers of live migration arrived (the counts
// behind fednet_migrations_total): warm arrivals the destination adopted,
// movers that arrived cold although they had trained, and carried state
// the destination's receipt screen refused. A mover that never trained
// carries nothing and is not counted. All zero when LiveMigration is off.
func (c *Cluster) Migrations() (ok, fallback, rejected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations["ok"], c.migrations["fallback"], c.migrations["rejected"]
}

// Failovers reports how many edges the cloud declared dead (the count
// behind fednet_edge_failovers_total).
func (c *Cluster) Failovers() int { return c.cloud.deaths() }

// Rehomed reports how many devices failed over to another edge (the count
// behind fednet_rehomed_devices_total).
func (c *Cluster) Rehomed() int {
	n := 0
	for _, mx := range c.clients {
		n += mx.rehomed()
	}
	return n
}

// MembershipEpoch returns the cloud's current membership epoch: one bump
// per admission and one per death.
func (c *Cluster) MembershipEpoch() int { return c.cloud.Epoch() }

// Stranded returns the devices that are detached because their last
// attachment and every failover candidate failed (ascending). They
// remain stranded until a later mobility step attaches them.
func (c *Cluster) Stranded() []int {
	out := []int{}
	for _, mx := range c.clients {
		out = mx.strandedDevices(out)
	}
	return out
}
