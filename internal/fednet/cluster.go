package fednet

import (
	"errors"
	"fmt"
	"sort"
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
	// devices (one connection and goroutine per edge per client, one
	// shared model instance). ≤ 1 gives every device a client, network and
	// optimizer of its own, so a cohort trains in parallel.
	Mux int
	// LiveMigration makes a moving device arrive warm: it leaves its edge
	// and registers at the next one carrying its own model, utility, last
	// training round and optimizer state (ConnectRehome), so Eq. 9 blends
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
	// whole deployment; its errors are tolerated by Wait. Enabling
	// faults also switches the cloud to degraded mode (MinEdges 1).
	Faults *FaultConfig
	// Membership, when Enabled, runs the cloud in self-healing membership
	// mode: edges hold leases, a missed-lease detector declares dead
	// edges, and the cluster re-homes a dead edge's devices to the
	// surviving edges (warm, carrying their local state) instead of
	// leaving them stranded. Killed edges may later RestartEdge and
	// rejoin under a bumped membership epoch. Disabled (the default)
	// keeps the fixed-membership behaviour bit-identical.
	Membership MembershipConfig
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
	injector *FaultInjector
	faulty   bool // fault injection enabled: edge failures are expected
	logf     func(format string, args ...any)
	seed     int64

	wg        sync.WaitGroup
	mu        sync.Mutex
	errs      []error
	tolerated []error
	moveErrs  int
	// assign is the current device→edge attachment (mobility plus any
	// failover re-homing); downEdges marks edges declared dead by the
	// cloud's failure detector. failovers/rehomed tally edge failovers
	// and warm device re-homes for run summaries.
	assign    []int
	downEdges map[int]bool
	failovers int
	rehomed   int
	// failoverSpan observes fednet_failover_seconds: edge declared dead →
	// all its devices re-homed.
	failoverSpan *obs.Span
	strandedG    *obs.Gauge
	moveRetries  *obs.Counter
	moveErrCtr   *obs.Counter
	rehomedCtr   *obs.Counter
	// stranded tracks devices whose move exhausted its retries and who
	// are therefore detached until their next mobility step.
	stranded map[int]bool
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
		stranded: map[int]bool{}, downEdges: map[int]bool{},
		logf: cfg.Logf, seed: cfg.Seed,
		failoverSpan: cfg.Obs.Span("fednet_failover_seconds"),
		strandedG:    cfg.Obs.Gauge("fednet_stranded_devices"),
		moveRetries:  cfg.Obs.Counter("fednet_move_retries_total"),
		moveErrCtr:   cfg.Obs.Counter("fednet_move_errors_total"),
		rehomedCtr:   cfg.Obs.Counter("fednet_rehomed_devices_total"),
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

	init := cfg.Factory(tensor.Split(cfg.Seed, 0)).ParamVector()
	cfg.Mobility.Reset()
	membership := append([]int(nil), cfg.Mobility.Step()...) // kept across rounds: Step's slice is the model's
	c.assign = append([]int(nil), membership...)

	// Device migration at round boundaries, driven by the cloud: the
	// movers of one boundary move concurrently (see move), and all are
	// done before the next round starts.
	onRound := func(round int) {
		next := append([]int(nil), cfg.Mobility.Step()...)
		var moves sync.WaitGroup
		for m, e := range next {
			// A mobility step may target an edge the failure detector has
			// declared dead; redirect the move deterministically to a
			// survivor instead of dialing a corpse.
			e = c.liveTarget(m, e)
			next[m] = e
			if e != membership[m] {
				moves.Add(1)
				go func() {
					defer moves.Done()
					c.move(m, membership[m], e, round, cfg.LiveMigration)
				}()
			}
		}
		moves.Wait()
		membership = next
	}

	minEdges := 0
	if c.faulty {
		// Under injected faults an edge may legitimately die mid-run;
		// degrade gracefully as long as one edge survives.
		minEdges = 1
	}
	ccfg := CloudConfig{
		Addr: "127.0.0.1:0", Edges: numEdges, Rounds: cfg.Rounds,
		CloudInterval: cfg.CloudInterval, InitModel: init,
		Timeout: cfg.Timeout, MinEdges: minEdges,
		CheckpointDir: cfg.CheckpointDir, Aggregator: cfg.Aggregator, Validate: cfg.Validate,
		Logf: cfg.Logf, OnRound: onRound, Obs: cfg.Obs, Trace: cfg.Trace,
	}
	if cfg.Membership.Enabled {
		ccfg.Membership = cfg.Membership
		ccfg.OnEdgeDown = c.onEdgeDown
		ccfg.OnEdgeUp = c.onEdgeUp
	}
	cloud, err := NewCloud(ccfg)
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
	for lo := 0; lo < numDevices; lo += c.group {
		var hosted []MuxDevice
		for m := lo; m < min(lo+c.group, numDevices); m++ {
			hosted = append(hosted, MuxDevice{DeviceID: m, Indices: cfg.Partition.Indices[m]})
		}
		mx, err := NewDeviceMux(DeviceMuxConfig{
			Devices: hosted, Dataset: cfg.Partition.Dataset,
			Factory: cfg.Factory, Optimizer: cfg.Optimizer.New(),
			LocalSteps: cfg.LocalSteps, BatchSize: cfg.BatchSize,
			Strategy: cfg.Strategy, Seed: cfg.Seed, Timeout: cfg.Timeout,
			Logf: cfg.Logf, Faults: c.injector, Obs: cfg.Obs, Trace: cfg.Trace,
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
			// dropping below MinEdges is not graceful degradation).
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

// liveTarget redirects an intended attachment target away from edges
// currently declared dead, picking a survivor deterministically by
// device id. With no dead edges (the default) it is the identity.
func (c *Cluster) liveTarget(m, e int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.downEdges[e] {
		return e
	}
	var survivors []int
	for i := range c.edges {
		if !c.downEdges[i] {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		return e
	}
	return survivors[m%len(survivors)]
}

// move takes device m from edge src to edge dst at a round boundary: it
// leaves src and registers at dst, with live migration warm, carrying its
// own state. Only a device whose move exhausted every reconnect retry is
// counted stranded (see attach). A warm move's outcome is the
// destination's verdict on what the device carried.
func (c *Cluster) move(m, src, dst, round int, live bool) {
	start := time.Now()
	// Off src's candidate set before the device registers anywhere else:
	// its leave notice or closing socket reaches src in its own time.
	c.edgeAt(src).release(m)
	if err := c.attach(m, dst, live, int64(round)); err != nil {
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
	out := c.edgeAt(dst).arrival(m)
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

// attach connects device m to edge target — warm, carrying the device's
// own local model and bookkeeping, or cold — retrying with the
// standard capped backoff (salt decorrelates the jitter of different
// occasions), and books the outcome: the new assignment, or a device
// stranded until its next mobility step re-attempts a connection.
func (c *Cluster) attach(m, target int, warm bool, salt int64) error {
	connect := c.clients[m/c.group].Connect
	if warm {
		connect = c.clients[m/c.group].ConnectRehome
	}
	var err error
	for attempt := 0; attempt <= defaultMaxRetries; attempt++ {
		if attempt > 0 {
			c.moveRetries.Inc()
			time.Sleep(retryBackoff(0, attempt, c.seed, int64(m)*1_000_003+int64(target)*17+salt))
		}
		if err = connect(m, target, c.edgeAt(target).Addr()); err == nil {
			break
		}
	}
	c.mu.Lock()
	if err != nil {
		c.stranded[m] = true
	} else {
		c.assign[m] = target
		delete(c.stranded, m)
	}
	c.strandedG.Set(float64(len(c.stranded)))
	c.mu.Unlock()
	return err
}

// onEdgeDown is the cloud failure detector's callback (membership mode):
// re-home every device attached to the dead edge onto the survivors, warm,
// so no device stays stranded past the failover.
// Runs in its own goroutine, spawned by the cloud.
func (c *Cluster) onEdgeDown(dead int) {
	start := time.Now()
	c.mu.Lock()
	c.downEdges[dead] = true
	c.failovers++
	var victims []int
	for m, e := range c.assign {
		if e == dead {
			victims = append(victims, m)
		}
	}
	c.mu.Unlock()
	c.logf("cluster: edge %d declared dead — re-homing %d devices", dead, len(victims))
	for _, m := range victims {
		target := c.liveTarget(m, dead)
		if target == dead {
			// No survivors at all; the devices stay stranded until an
			// edge rejoins and mobility re-attaches them.
			c.mu.Lock()
			c.stranded[m] = true
			c.strandedG.Set(float64(len(c.stranded)))
			c.mu.Unlock()
			continue
		}
		if err := c.attach(m, target, true, 911); err != nil {
			c.logf("cluster: device %d failed to re-home off dead edge %d: %v", m, dead, err)
		} else {
			c.mu.Lock()
			c.rehomed++
			c.mu.Unlock()
			c.rehomedCtr.Inc()
			c.logf("cluster: device %d re-homed to edge %d after edge %d died", m, target, dead)
		}
	}
	c.failoverSpan.Observe(time.Since(start))
}

// onEdgeUp is the cloud's rejoin callback: the edge is back in the
// membership (bumped epoch) and eligible as a move target again.
func (c *Cluster) onEdgeUp(e int) {
	c.mu.Lock()
	delete(c.downEdges, e)
	c.mu.Unlock()
	c.logf("cluster: edge %d back in membership", e)
}

// KillEdge abruptly tears edge e down — listener, cloud link, and device
// connections all close with no drain or checkpoint, the in-process
// equivalent of SIGKILL. In membership mode the cloud's failure detector
// notices the missed leases, declares the edge dead, and the cluster
// re-homes its devices; the edge's Run error is recorded as a tolerated
// casualty, not a run failure.
func (c *Cluster) KillEdge(e int) {
	c.edgeAt(e).Kill()
}

// RestartEdge brings a previously killed edge back (membership mode): a
// fresh Edge on a new listener address re-registers with the cloud,
// which readmits it under a bumped membership epoch and serves it the
// current global model for catch-up; with EdgeCheckpoints enabled the
// new process also restores its round state from its named checkpoint
// first. The restarted edge becomes a mobility target again once the
// cloud's rejoin callback fires.
func (c *Cluster) RestartEdge(e int) error {
	c.mu.Lock()
	ecfg := c.edgeCfgs[e]
	c.mu.Unlock()
	ecfg.Addr = "127.0.0.1:0"
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
	out := make([]int, len(c.assign))
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
// movers that arrived cold although they had trained, and carried models
// the destination's receipt screen refused. A mover that never trained
// carries nothing and is not counted. All zero when LiveMigration is off.
func (c *Cluster) Migrations() (ok, fallback, rejected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations["ok"], c.migrations["fallback"], c.migrations["rejected"]
}

// Failovers reports how many edge-death failovers the cluster handled
// (the count behind fednet_edge_failovers_total).
func (c *Cluster) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Rehomed reports how many devices were successfully re-homed off dead
// edges (the count behind fednet_rehomed_devices_total).
func (c *Cluster) Rehomed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rehomed
}

// MembershipEpoch returns the cloud's current membership epoch (0 when
// membership mode is off).
func (c *Cluster) MembershipEpoch() int { return c.cloud.Epoch() }

// DownEdges lists edges currently declared dead by the failure detector
// (sorted ascending; empty outside membership mode).
func (c *Cluster) DownEdges() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.downEdges))
	for e := range c.downEdges {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// Stranded returns the devices currently detached because their last
// move exhausted every reconnect retry (sorted ascending). They remain
// stranded until a later mobility step re-attaches them.
func (c *Cluster) Stranded() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.stranded))
	for m := range c.stranded {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}
