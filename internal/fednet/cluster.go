package fednet

import (
	"errors"
	"fmt"
	"slices"
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
	// Mux and LiveMigration configure the fleet (see FleetConfig).
	Mux           int
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
	// detector's tick (see CloudConfig). Every edge is every device's
	// failover candidate, so the devices of an edge that dies re-home
	// themselves to the survivors, warm; a killed edge may later
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
	killed   []*Edge      // incarnations RestartEdge replaced, for Migrations
	fleet    *Fleet
	faulty   bool // fault injection enabled: edge failures are expected

	wg        sync.WaitGroup
	mu        sync.Mutex
	errs      []error
	tolerated []error
}

// StartCluster builds and starts the deployment: the roles middled runs —
// a cloud, an edge per mobility edge and one fleet of every device — in
// this process. The mobility model's device count must match the
// partition's. The call returns once the fleet has attached every device,
// which is what releases the first round; use Wait to block until
// training completes.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Partition.NumDevices() != cfg.Mobility.NumDevices() {
		return nil, fmt.Errorf("fednet: partition has %d devices, mobility %d", cfg.Partition.NumDevices(), cfg.Mobility.NumDevices())
	}
	c := &Cluster{faulty: cfg.Faults != nil}
	var injector *FaultInjector
	if cfg.Faults != nil {
		fc := *cfg.Faults
		if fc.Obs == nil {
			fc.Obs = cfg.Obs
		}
		injector = NewFaultInjector(fc)
	}
	fcfg := FleetConfig{
		Mobility: cfg.Mobility, Partition: cfg.Partition, Factory: cfg.Factory, Optimizer: cfg.Optimizer,
		Mux: cfg.Mux, LiveMigration: cfg.LiveMigration,
		DeviceMuxConfig: DeviceMuxConfig{LocalSteps: cfg.LocalSteps, BatchSize: cfg.BatchSize, Strategy: cfg.Strategy,
			Seed: cfg.Seed, Timeout: cfg.Timeout, Faults: injector, Logf: cfg.Logf, Obs: cfg.Obs, Trace: cfg.Trace},
	}
	// The initial model is a trainer's network before any training.
	fcfg.pool = fcfg.trainers()
	tw := <-fcfg.pool
	init := tw.Net.ParamVector()
	fcfg.pool <- tw

	cloud, err := NewCloud(CloudConfig{
		Addr: "127.0.0.1:0", Edges: cfg.Mobility.NumEdges(), Rounds: cfg.Rounds,
		CloudInterval: cfg.CloudInterval, InitModel: init,
		Timeout: cfg.Timeout, LeaseInterval: cfg.LeaseInterval,
		CheckpointDir: cfg.CheckpointDir, Aggregator: cfg.Aggregator, Validate: cfg.Validate,
		Logf: cfg.Logf, Obs: cfg.Obs, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	c.cloud = cloud
	fcfg.CloudAddr = cloud.Addr()
	// Cloud and fleet errors are always real: they mean the run itself
	// failed (even under injection, losing the coordinator or every edge
	// is not graceful degradation).
	c.launch("cloud", cloud.Run, nil)
	for e := 0; e < cfg.Mobility.NumEdges(); e++ {
		ecfg := EdgeConfig{
			EdgeID: e, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0",
			K: cfg.K, Strategy: cfg.Strategy, Seed: cfg.Seed, Logf: cfg.Logf,
			Timeout: cfg.Timeout, Quorum: cfg.Quorum, RoundDeadline: cfg.RoundDeadline,
			Aggregator: cfg.Aggregator, Validate: cfg.Validate,
			SelectionNormCap: cfg.SelectionNormCap, Faults: injector, Obs: cfg.Obs, Trace: cfg.Trace,
		}
		if cfg.EdgeCheckpoints {
			ecfg.CheckpointDir = cfg.CheckpointDir
		}
		c.edgeCfgs = append(c.edgeCfgs, ecfg)
		edge, err := c.startEdge(e, ecfg.Addr)
		if err != nil {
			return nil, err
		}
		c.edges = append(c.edges, edge)
		// Every edge keeps its address for the whole run (RestartEdge
		// listens again on it), so one candidate list serves every device.
		fcfg.Edges = append(fcfg.Edges, EdgeAddr{ID: e, Addr: edge.Addr()})
	}
	if c.fleet, err = NewFleet(fcfg); err != nil {
		return nil, err
	}
	c.launch("fleet", c.fleet.Run, nil)
	return c, nil
}

// launch runs a component's Run in the background and records its error,
// as a tolerated casualty when tolerated says so (nil: never).
func (c *Cluster) launch(name string, run func() error, tolerated func(error) bool) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		err := run()
		if err == nil {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if tolerated != nil && tolerated(err) {
			c.tolerated = append(c.tolerated, fmt.Errorf("%s: %w", name, err))
		} else {
			c.errs = append(c.errs, fmt.Errorf("%s: %w", name, err))
		}
	}()
}

// edgeAt returns the current *Edge for slot i (RestartEdge replaces
// slice elements, so unguarded indexing would race).
func (c *Cluster) edgeAt(i int) *Edge {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges[i]
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
	edge, err := c.startEdge(e, c.edgeAt(e).Addr())
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.killed = append(c.killed, c.edges[e])
	c.edges[e] = edge
	c.mu.Unlock()
	return nil
}

// startEdge builds edge e from its template, listening on addr, and runs
// it. Edge failures are expected casualties when faults are being
// injected (the cloud degrades around them) or when this incarnation was
// deliberately killed; injected errors are tolerated regardless.
func (c *Cluster) startEdge(e int, addr string) (*Edge, error) {
	ecfg := c.edgeCfgs[e]
	ecfg.Addr = addr
	edge, err := NewEdge(ecfg)
	if err != nil {
		return nil, err
	}
	c.launch(fmt.Sprintf("edge %d", e), edge.Run, func(err error) bool {
		return c.faulty || errors.Is(err, ErrInjected) || edge.Killed()
	})
	return edge, nil
}

// Stop asks the cloud for a graceful stop at the next round boundary
// (final checkpoint included). Use Wait to collect the shutdown.
func (c *Cluster) Stop() { c.cloud.Stop() }

// Wait blocks until the cloud, the edges and the fleet terminate (the
// fleet detaching its devices), and returns the first real component
// error (nil on success). Injected/expected fault casualties are not
// surfaced as errors — they are counted and available through
// ToleratedFaults.
func (c *Cluster) Wait() error {
	c.wg.Wait()
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
	out := make([]int, c.fleet.cfg.Mobility.NumDevices())
	for m := range out {
		out[m] = c.fleet.clients[m/c.fleet.group].DeviceRounds(m)
	}
	return out
}

// MoveErrors reports how many device moves failed: the device was left
// stranded.
func (c *Cluster) MoveErrors() int { return int(c.fleet.moveErrs.Load()) }

// Migrations reports how the movers of live migration arrived (the counts
// behind fednet_migrations_total, which the edges keep as they take each
// warm registration): carried state the destination adopted, and carried
// state its receipt screen refused. fallback, a mover that had trained
// and yet arrived cold, stays 0: a mover registers warm, so its state is
// adopted or refused. A mover that never trained carries nothing and is
// not counted; a device that fails over carrying state counts like a
// mover. Without LiveMigration movers arrive cold, so only failovers count.
func (c *Cluster) Migrations() (ok, fallback, rejected int) {
	c.mu.Lock()
	edges := slices.Concat(c.killed, c.edges)
	c.mu.Unlock()
	for _, e := range edges {
		e.mu.Lock()
		ok, rejected = ok+e.migrations["ok"], rejected+e.migrations["rejected"]
		e.mu.Unlock()
	}
	return ok, fallback, rejected
}

// Failovers reports how many edges the cloud declared dead (the count
// behind fednet_edge_failovers_total).
func (c *Cluster) Failovers() int { return c.cloud.deaths() }

// Rehomed reports how many devices failed over to another edge (the count
// behind fednet_rehomed_devices_total).
func (c *Cluster) Rehomed() int {
	n := 0
	for _, mx := range c.fleet.clients {
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
	for _, mx := range c.fleet.clients {
		out = mx.strandedDevices(out)
	}
	return out
}
