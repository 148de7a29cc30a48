// Command middled runs one component of a networked MIDDLE deployment —
// cloud coordinator, edge server, or a fleet of device clients — so the
// full device-edge-cloud system can be spread over real machines. All
// components must agree on -task and -seed so device shards and model
// architectures line up.
//
//	middled -role cloud -addr :7000 -edges 2 -rounds 50 -tc 10
//	middled -role edge  -id 0 -cloud host:7000 -addr :7100 -strategy MIDDLE
//	middled -role edge  -id 1 -cloud host:7000 -addr :7101 -strategy MIDDLE
//	middled -role devices -edgeaddrs host:7100,host:7101 -from 0 -to 9 -p 0.5 -strategy MIDDLE
//
// The -role devices process hosts a contiguous range of device ids and
// migrates them between the listed edges with a ring-Markov mobility of
// probability -p at a fixed cadence. For scale-out, -mux N (devices)
// hosts N devices per client: one connection per edge and one model
// instance for the group (1 = a client per device).
// Every other devices-role flag works the same at any -mux.
//
// Flags, by the struct they fill (registerFlags): experiments.CLI takes
// -task -scale -seed and the observability flags; fednet.CloudConfig
// -edges -rounds -tc -membership -lease-interval -round-interval;
// fednet.EdgeConfig -id -cloud -k -live-migration -sel-norm-cap and,
// shared with the cloud, -addr -checkpoint-dir -aggregator -norm-bound;
// the devices role's own options -edgeaddrs -from -to -p -movems -mux
// -failover. Fault injection, edge-loss tolerance, quorum and round
// deadlines are fednet config fields that the in-process cluster
// (fednet.StartCluster) sets; the daemons run with their defaults.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"middle"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/fednet"
	"middle/internal/mobility"
	"middle/internal/tensor"
)

// options is everything the flags fill. A flag binds into the config of
// the component it configures; the flags two roles take (-addr,
// -strategy, -live-migration, the checkpoint and aggregation groups)
// bind into the edge's config and the other role copies them from there.
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
	edgeList         string // -edgeaddrs
	from, to, moveMs int
	p                float64
	mux              int
	failover         bool
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
	fs.BoolVar(&c.Membership.Enabled, "membership", false, "cloud role: self-healing membership mode — edges hold leases, missed leases trigger failover, restarted edges rejoin under a bumped epoch")
	fs.DurationVar(&c.Membership.LeaseInterval, "lease-interval", 0, "cloud role: membership lease interval (0 = 500ms)")
	fs.DurationVar(&c.RoundInterval, "round-interval", 0, "cloud role: minimum wall-clock duration per round, pacing the schedule against device mobility and attachment (0 = free-running)")

	// fednet.EdgeConfig; the cloud role reads the first four too.
	e := &o.edge
	fs.StringVar(&e.Addr, "addr", "127.0.0.1:0", "listen address (cloud, edge)")
	fs.StringVar(&e.CheckpointDir, "checkpoint-dir", "", "cloud/edge roles: persist model + round state here and resume from the latest valid checkpoint")
	experiments.AggregationFlags(fs, &e.Aggregator, &e.Validate, &e.SelectionNormCap) // -sel-norm-cap: edge only
	fs.IntVar(&e.EdgeID, "id", 0, "edge id (edge role)")
	fs.StringVar(&e.CloudAddr, "cloud", "", "cloud address (edge role)")
	fs.IntVar(&e.K, "k", 5, "devices selected per round (edge role)")
	fs.BoolVar(&e.LiveMigration, "live-migration", false, "edge role: devices keep their optimizer state between trainings; devices role: a moving device registers at its new edge warm, carrying its own state")

	// The devices role's own flags.
	d := &o.devices
	fs.StringVar(&d.edgeList, "edgeaddrs", "", "comma-separated edge addresses (devices role)")
	fs.IntVar(&d.from, "from", 0, "first device id (devices role)")
	fs.IntVar(&d.to, "to", 9, "last device id inclusive (devices role)")
	fs.Float64Var(&d.p, "p", 0.5, "device mobility probability (devices role)")
	fs.IntVar(&d.moveMs, "movems", 2000, "milliseconds between mobility steps (devices role)")
	fs.IntVar(&d.mux, "mux", 1, "devices role: devices hosted per client, sharing one connection per edge and one model instance (1 = a client per device)")
	fs.BoolVar(&d.failover, "failover", false, "devices role: when an edge dies, re-home its devices to the surviving -edgeaddrs entries carrying their local state")
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
	log.Printf("middled: cloud listening on %s (%d edges, %d rounds, Tc=%d, membership=%v)",
		c.Addr(), cfg.Edges, cfg.Rounds, cfg.CloudInterval, cfg.Membership.Enabled)
	if err := c.Run(); err != nil {
		o.Fatalf("%v", err)
	}
	acc := setup.Accuracy(o.Seed, c.GlobalModel())
	log.Printf("middled: training complete (final accuracy %.4f)", acc)
	extra := map[string]any{"final_accuracy": acc}
	if cfg.Membership.Enabled {
		extra["membership_epoch"] = c.Epoch()
		log.Printf("middled: membership epoch at exit: %d", c.Epoch())
	}
	return extra
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
// numDevices devices, returning the edge address list, the strategy the
// devices build their start models with and the failover candidates.
// With -failover every listed edge is a re-home candidate: a device
// whose edge stops answering re-registers at a survivor on its own,
// carrying its local model and round bookkeeping.
func (d devicesOpts) check(strategy string, numDevices int) ([]string, middle.Strategy, []fednet.EdgeAddr, error) {
	addrs := strings.Split(d.edgeList, ",")
	if addrs[0] == "" {
		return nil, nil, nil, fmt.Errorf("devices role requires -edgeaddrs")
	}
	strat, err := middle.StrategyByName(strategy)
	if err != nil {
		return nil, nil, nil, err
	}
	if d.mux < 1 {
		return nil, nil, nil, fmt.Errorf("-mux must be ≥ 1, got %d", d.mux)
	}
	if d.to >= numDevices || d.from < 0 || d.from > d.to {
		return nil, nil, nil, fmt.Errorf("device range %d..%d outside partition of %d", d.from, d.to, numDevices)
	}
	var candidates []fednet.EdgeAddr
	if d.failover {
		for e, a := range addrs {
			candidates = append(candidates, fednet.EdgeAddr{ID: e, Addr: a})
		}
	}
	return addrs, strat, candidates, nil
}

func (o *options) runDevices(setup *experiments.TaskSetup) map[string]any {
	from, to, mux, seed := o.devices.from, o.devices.to, o.devices.mux, o.Seed
	part := setup.Partition(seed)
	addrs, strat, candidates, err := o.devices.check(o.strategy, part.NumDevices())
	if err != nil {
		o.Fatalf("middled: %v", err)
	}
	n := to - from + 1
	// Device from+i rides clients[i/mux]: one socket per edge and one
	// model instance per -mux group.
	var clients []*fednet.DeviceMux
	for lo := 0; lo < n; lo += mux {
		var hosted []fednet.MuxDevice
		for i := lo; i < min(lo+mux, n); i++ {
			hosted = append(hosted, fednet.MuxDevice{DeviceID: from + i, Indices: part.Indices[from+i]})
		}
		mx, err := fednet.NewDeviceMux(fednet.DeviceMuxConfig{
			Devices: hosted, Dataset: part.Dataset, Factory: setup.Factory,
			Optimizer:  setup.Optimizer.New(),
			LocalSteps: setup.I, BatchSize: setup.BatchSize,
			Strategy: strat, Seed: seed,
			Failover: candidates, Logf: log.Printf,
			Obs: o.M.Registry(), Trace: o.Trace,
		})
		if err != nil {
			o.Fatalf("%v", err)
		}
		clients = append(clients, mx)
	}
	log.Printf("middled: hosting devices %d..%d on %d clients (%d devices each)", from, to, len(clients), mux)
	connect := func(i, edgeID int) error { return clients[i/mux].Connect(from+i, edgeID, addrs[edgeID]) }
	move := connect
	if o.edge.LiveMigration {
		move = func(i, edgeID int) error { return clients[i/mux].ConnectRehome(from+i, edgeID, addrs[edgeID]) }
	}
	mob := mobility.NewMarkovRing(len(addrs), n, o.devices.p, seed+int64(from))
	// Step's slices are the model's own and read-only; this loop keeps one
	// across ticks and rewrites entries on failover, so it copies.
	membership := append([]int(nil), mob.Step()...)
	for i := range membership {
		if err := connect(i, membership[i]); err != nil {
			o.Fatalf("%v", err)
		}
		log.Printf("middled: device %d attached to edge %d", from+i, membership[i])
	}
	strandedGauge := o.M.Registry().Gauge("fednet_stranded_devices")
	stop := make(chan struct{})
	onSignal(func() { close(stop) })
	ticker := time.NewTicker(time.Duration(o.devices.moveMs) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			// Graceful shutdown: detach every device cleanly so the edges
			// see deliberate disconnects, then let main's trace and metrics
			// flushes run.
			for _, mx := range clients {
				mx.Disconnect()
			}
			log.Printf("middled: devices %d..%d detached", from, to)
			return nil
		case <-ticker.C:
		}
		next := append([]int(nil), mob.Step()...)
		for i := range next {
			if next[i] == membership[i] {
				continue
			}
			err := move(i, next[i])
			if err != nil && o.devices.failover {
				// The intended edge may be dead; try the other candidates
				// in order so the device keeps training somewhere.
				for off := 1; off < len(addrs) && err != nil; off++ {
					alt := (next[i] + off) % len(addrs)
					if err = move(i, alt); err == nil {
						next[i] = alt
					}
				}
			}
			if err != nil {
				log.Printf("middled: device %d failed to move: %v", from+i, err)
				continue
			}
			log.Printf("middled: device %d moved to edge %d", from+i, next[i])
		}
		membership = next
		stranded := 0
		for i := range next {
			if !clients[i/mux].Connected(from + i) {
				stranded++
			}
		}
		strandedGauge.Set(float64(stranded))
		if stranded > 0 {
			log.Printf("middled: %d devices currently stranded", stranded)
		}
	}
}
