// Command middled runs one component of a networked MIDDLE deployment —
// cloud coordinator, edge server, or a fleet of device clients — so the
// full device-edge-cloud system can be spread over real machines. All
// components must agree on -task and -seed so device shards and model
// architectures line up.
//
//	middled -role cloud -addr :7000 -edges 2 -rounds 50 -tc 10
//	middled -role edge  -id 0 -cloud host:7000 -addr :7100 -strategy MIDDLE
//	middled -role edge  -id 1 -cloud host:7000 -addr :7101 -strategy MIDDLE
//	middled -role devices -cloud host:7000 -edgeaddrs host:7100,host:7101 -from 0 -to 9 -p 0.5 -strategy MIDDLE
//
// The -role devices process is a fednet.Fleet: it hosts a contiguous
// range of device ids, attaches them to the listed edges, announces them
// to the cloud at -cloud, and moves them with a ring-Markov mobility of
// probability -p at the cloud's round boundaries, so a run with moves
// computes one model per seed. -mux N hosts N devices per client: one
// connection per edge. Every flag binds into the config of the component
// it configures (registerFlags; README lists them by struct).
// The cloud always runs the self-healing membership: edges hold leases,
// an edge that misses them is declared dead, and a restarted edge rejoins
// under a bumped epoch. Every -edgeaddrs entry is a failover candidate: a
// device whose edge stops answering re-registers at a survivor on its
// own, carrying its local model and round bookkeeping. Fault injection,
// quorum and round deadlines are fednet config fields that the in-process
// cluster (fednet.StartCluster) sets; the daemons run with their defaults.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"middle"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/fednet"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// options is everything the flags fill. A flag binds into the config of
// the component it configures; the flags two roles take (-addr,
// -strategy, the checkpoint and aggregation groups) bind into the edge's
// config and the other role copies them from there.
type options struct {
	experiments.CLI // -task -scale -seed and the observability flags
	role            string
	strategy        string // edge and devices roles

	cloud   fednet.CloudConfig
	edge    fednet.EdgeConfig
	devices devicesOpts
}

// devicesOpts is the devices role's own flags: which device ids the
// process hosts, on which edges, and how they move.
type devicesOpts struct {
	edgeList      string // -edgeaddrs
	from, to      int
	p             float64
	mux           int
	liveMigration bool
}

// registerFlags declares middled's flags on fs, grouped by the struct
// they fill.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{CLI: experiments.CLI{Name: "middled", EventSink: os.Stderr}}
	o.Logf = func(format string, args ...any) { log.Printf("middled: "+format, args...) }
	o.RegisterFlags(fs)
	fs.StringVar(&o.role, "role", "", "cloud|edge|devices")
	fs.StringVar(&o.strategy, "strategy", "MIDDLE", "strategy (edge and devices roles; both must name the same one)")

	// fednet.CloudConfig (see DESIGN.md "Fault model", "Scale architecture").
	c := &o.cloud
	fs.IntVar(&c.Edges, "edges", 2, "edge count (cloud role)")
	fs.IntVar(&c.Rounds, "rounds", 50, "rounds to coordinate (cloud role)")
	fs.IntVar(&c.CloudInterval, "tc", 10, "cloud interval T_c (cloud role)")
	fs.DurationVar(&c.LeaseInterval, "lease-interval", 0, "cloud role: membership lease interval (0 = 500ms)")

	// fednet.EdgeConfig; the cloud role reads the first four too.
	e := &o.edge
	fs.StringVar(&e.Addr, "addr", "127.0.0.1:0", "listen address (cloud, edge)")
	fs.StringVar(&e.CheckpointDir, "checkpoint-dir", "", "cloud/edge roles: persist model + round state here and resume from the latest valid checkpoint")
	experiments.AggregationFlags(fs, &e.Aggregator, &e.Validate, &e.SelectionNormCap) // -sel-norm-cap: edge only
	fs.IntVar(&e.EdgeID, "id", 0, "edge id (edge role)")
	fs.StringVar(&e.CloudAddr, "cloud", "", "cloud address (edge and devices roles)")
	fs.IntVar(&e.K, "k", 5, "devices selected per round (edge role)")

	// The devices role's own flags.
	d := &o.devices
	fs.StringVar(&d.edgeList, "edgeaddrs", "", "comma-separated edge addresses (devices role)")
	fs.IntVar(&d.from, "from", 0, "first device id (devices role)")
	fs.IntVar(&d.to, "to", 9, "last device id inclusive (devices role)")
	fs.Float64Var(&d.p, "p", 0.5, "devices role: probability that a device moves at a round boundary")
	fs.IntVar(&d.mux, "mux", 1, "devices role: devices hosted per client, sharing one connection per edge and one model instance (1 = a client per device)")
	fs.BoolVar(&d.liveMigration, "live-migration", false, "devices role: a moving device registers at its new edge warm, keeping its model for Eq. 9 and carrying its Eq. 12 scores (edges need no flag)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	run := map[string]func(*experiments.TaskSetup) map[string]any{
		"cloud": o.runCloud, "edge": o.runEdge, "devices": o.runDevices,
	}[o.role]
	if run == nil {
		fmt.Fprintln(os.Stderr, "middled: -role must be cloud, edge or devices")
		flag.Usage()
		os.Exit(2)
	}
	defer o.Start("role", o.role)()
	summary := run(o.Attach(experiments.NewTaskSetup(data.TaskName(o.Task), experiments.Scale(o.Scale), o.Seed)))

	// The coordinating role gates its exit code on the run's SLOs: any
	// rule that fired at any point fails the process even if it later
	// recovered, so CI catches transient regressions.
	if breached := o.Finish(summary); o.role == "cloud" && len(breached) > 0 {
		o.M.Close()
		o.Fatalf("middled: SLO breach: %s", strings.Join(breached, ", "))
	}
}

// onSignal runs fn once when the process receives SIGTERM or SIGINT —
// the graceful-shutdown hook each role wires to its drain path.
func onSignal(fn func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-ch
		log.Printf("middled: received %v — shutting down gracefully", s)
		fn()
	}()
}

// runCloud coordinates the run and returns the summary's extra fields.
func (o *options) runCloud(setup *experiments.TaskSetup) map[string]any {
	cfg := o.cloud
	cfg.Addr, cfg.CheckpointDir = o.edge.Addr, o.edge.CheckpointDir
	cfg.Aggregator, cfg.Validate = o.edge.Aggregator, o.edge.Validate
	cfg.InitModel = setup.Factory(tensor.Split(o.Seed, 0)).ParamVector()
	cfg.Logf, cfg.Obs, cfg.Trace = log.Printf, o.M.Registry(), o.Trace
	c, err := fednet.NewCloud(cfg)
	if err != nil {
		o.Fatalf("%v", err)
	}
	// Graceful shutdown: finish the in-flight round, write a final
	// checkpoint, then let main's trace/tsdb flushes run.
	onSignal(c.Stop)
	log.Printf("middled: cloud listening on %s (%d edges, %d rounds, Tc=%d)",
		c.Addr(), cfg.Edges, cfg.Rounds, cfg.CloudInterval)
	if err := c.Run(); err != nil {
		o.Fatalf("%v", err)
	}
	acc := setup.Accuracy(o.Seed, c.GlobalModel())
	log.Printf("middled: training complete (final accuracy %.4f)", acc)
	log.Printf("middled: membership epoch at exit: %d", c.Epoch())
	return map[string]any{"final_accuracy": acc, "membership_epoch": c.Epoch()}
}

func (o *options) runEdge(*experiments.TaskSetup) map[string]any {
	cfg := o.edge
	if cfg.CloudAddr == "" {
		o.Fatalf("middled: edge role requires -cloud")
	}
	strat, err := middle.StrategyByName(o.strategy)
	if err != nil {
		o.Fatalf("%v", err)
	}
	cfg.Strategy, cfg.Seed = strat, o.Seed
	cfg.Logf, cfg.Obs, cfg.Trace = log.Printf, o.M.Registry(), o.Trace
	e, err := fednet.NewEdge(cfg)
	if err != nil {
		o.Fatalf("%v", err)
	}
	// Graceful shutdown: drop the cloud link so Run drains, checkpoints
	// and shuts its devices down before returning nil.
	onSignal(e.Stop)
	log.Printf("middled: edge %d serving devices on %s (strategy %s)", cfg.EdgeID, e.Addr(), o.strategy)
	if err := e.Run(); err != nil {
		o.Fatalf("%v", err)
	}
	log.Printf("middled: edge %d done", cfg.EdgeID)
	return nil
}

// check validates the devices role's flags against a partition of
// numDevices devices, returning the strategy the devices build their start
// models with and the edges by id: every one a failover candidate.
func (d devicesOpts) check(cloud, strategy string, numDevices int) (middle.Strategy, []fednet.EdgeAddr, error) {
	addrs := strings.Split(d.edgeList, ",")
	if addrs[0] == "" {
		return nil, nil, fmt.Errorf("devices role requires -edgeaddrs")
	}
	if cloud == "" {
		return nil, nil, fmt.Errorf("devices role requires -cloud: rounds end there, and devices move in between")
	}
	strat, err := middle.StrategyByName(strategy)
	if err != nil {
		return nil, nil, err
	}
	if d.mux < 1 {
		return nil, nil, fmt.Errorf("-mux must be ≥ 1, got %d", d.mux)
	}
	if d.to >= numDevices || d.from < 0 || d.from > d.to {
		return nil, nil, fmt.Errorf("device range %d..%d outside partition of %d", d.from, d.to, numDevices)
	}
	edges := make([]fednet.EdgeAddr, len(addrs))
	for e, a := range addrs {
		edges[e] = fednet.EdgeAddr{ID: e, Addr: a}
	}
	return strat, edges, nil
}

func (o *options) runDevices(setup *experiments.TaskSetup) map[string]any {
	d, seed := o.devices, o.Seed
	part := setup.Partition(seed)
	strat, edges, err := d.check(o.edge.CloudAddr, o.strategy, part.NumDevices())
	if err != nil {
		o.Fatalf("middled: %v", err)
	}
	f, err := fednet.NewFleet(fednet.FleetConfig{
		CloudAddr: o.edge.CloudAddr, Edges: edges,
		Mobility: mobility.NewMarkovRing(len(edges), d.to-d.from+1, d.p, seed+int64(d.from)),
		First:    d.from, Partition: part, Factory: setup.Factory, Optimizer: setup.Optimizer,
		Mux: d.mux, LiveMigration: d.liveMigration,
		DeviceMuxConfig: fednet.DeviceMuxConfig{LocalSteps: setup.I, BatchSize: setup.BatchSize, Strategy: strat,
			Seed: seed, Logf: log.Printf, Obs: o.M.Registry(), Trace: o.Trace},
	})
	if err != nil {
		o.Fatalf("%v", err)
	}
	log.Printf("middled: hosting devices %d..%d (%d per client)", d.from, d.to, d.mux)
	// Graceful shutdown: detach every device cleanly so the edges see
	// deliberate disconnects, then let main's trace and metrics flushes run.
	onSignal(f.Stop)
	if err := f.Run(); err != nil {
		log.Printf("middled: %v", err)
	}
	log.Printf("middled: devices %d..%d detached", d.from, d.to)
	return nil
}
