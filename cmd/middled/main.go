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
// probability -p at a fixed cadence. For scale-out, -shards (cloud)
// streams per-shard partial sums instead of gathering every edge model,
// and -mux N (devices) hosts N devices per client: one connection per
// edge and one model instance for the group (1 = a client per device).
// Every other devices-role flag works the same at any -mux.
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
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/tensor"
)

func main() {
	var (
		role      = flag.String("role", "", "cloud|edge|devices")
		task      = flag.String("task", "mnist", "task: mnist|emnist|cifar10|speech")
		scale     = flag.String("scale", "fast", "fast|paper")
		seed      = flag.Int64("seed", 1, "shared root seed")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address (cloud, edge)")
		edgesN    = flag.Int("edges", 2, "edge count (cloud role)")
		rounds    = flag.Int("rounds", 50, "rounds to coordinate (cloud role)")
		tc        = flag.Int("tc", 10, "cloud interval T_c (cloud role)")
		id        = flag.Int("id", 0, "edge id (edge role)")
		cloud     = flag.String("cloud", "", "cloud address (edge role)")
		strategy  = flag.String("strategy", "MIDDLE", "strategy (edge and devices roles; both must name the same one)")
		k         = flag.Int("k", 5, "devices selected per round (edge role)")
		edgeList  = flag.String("edgeaddrs", "", "comma-separated edge addresses (devices role)")
		from      = flag.Int("from", 0, "first device id (devices role)")
		to        = flag.Int("to", 9, "last device id inclusive (devices role)")
		p         = flag.Float64("p", 0.5, "device mobility probability (devices role)")
		moveMs    = flag.Int("movems", 2000, "milliseconds between mobility steps (devices role)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /status, /dashboard, /api/query and /debug/pprof on this address (empty = disabled)")
		results   = flag.String("results", "", "directory for the run summary JSON (empty = disabled)")
		traceOut  = flag.String("trace-out", "", "write this process's Chrome trace-event JSON here on exit (merge per-role files in Perfetto)")
		tsdbIntv  = flag.Duration("tsdb-interval", 0, "embedded time-series store scrape interval (0 = 1s when -metrics-addr or -slo is set, else disabled)")
		sloRules  = flag.String("slo", "", "SLO rules to gate the run on (\"default\" or rule list); cloud role exits non-zero after Run if any rule ever fired")
		flightDir = flag.String("flight-dir", "", "arm the flight recorder: postmortem bundles (profiles, tsdb dump, event ring, SLO state) land here on SLO breach, panic, SIGQUIT/SIGUSR1 or fatal exit")
		profIntv  = flag.Duration("profile-interval", 0, "continuous-profiler CPU window length; publishes profile_cpu_seconds_total{phase} / profile_alloc_bytes_total{phase} (0 = disabled)")

		// Robustness knobs (see DESIGN.md "Fault model").
		ckptDir   = flag.String("checkpoint-dir", "", "cloud/edge roles: persist model + round state here and resume from the latest valid checkpoint")
		ckptEvery = flag.Int("checkpoint-every", 1, "cloud/edge roles: checkpoint every Nth sync (cloud) or round (edge)")
		minEdges  = flag.Int("min-edges", 0, "cloud role: degrade gracefully down to this many live edges (0 = any edge loss is fatal)")
		quorum    = flag.Int("quorum", 0, "edge role: minimum responders per round before aggregating (0 = 1)")
		roundDL   = flag.Duration("round-deadline", 0, "edge role: per-round training deadline; stragglers past it are excluded (0 = network timeout)")
		faultSeed = flag.Int64("fault-seed", 0, "devices role: seed for deterministic fault injection")
		dropRate  = flag.Float64("drop-rate", 0, "devices role: per-message drop probability on device→edge writes")
		delayRate = flag.Float64("delay-rate", 0, "devices role: per-message delay probability on device→edge writes")
		corrRate  = flag.Float64("corrupt-rate", 0, "devices role: per-message corruption probability on device→edge writes (CRC-detected)")

		// Byzantine robustness (see DESIGN.md "Threat model & robust
		// aggregation").
		aggName    = flag.String("aggregator", "", "cloud/edge roles: aggregation rule: mean|median|trimmed-mean|norm-clip (default mean)")
		trimFrac   = flag.Float64("trim-frac", 0, "cloud/edge roles: per-side trim fraction for -aggregator trimmed-mean (0 = default 0.2)")
		normBound  = flag.Float64("norm-bound", 0, "cloud/edge roles: reject updates with norm > c*median(cohort norms); also rejects NaN/Inf models (0 = off)")
		selNormCap = flag.Float64("sel-norm-cap", 0, "edge role: exclude devices with update norm above this from Eq. 12 selection (0 = off)")
		poisonRate = flag.Float64("poison-rate", 0, "devices role: per-message probability the model payload is negated with a valid CRC")
		nanRate    = flag.Float64("nan-rate", 0, "devices role: per-message probability the model payload is replaced by NaNs with a valid CRC")

		// Scale-out knobs (see DESIGN.md "Scale architecture").
		shards = flag.Int("shards", 1, "cloud role: partition edges across this many aggregator shards with streamed partial sums (mean aggregation only)")
		mux    = flag.Int("mux", 1, "devices role: devices hosted per client, sharing one connection per edge and one model instance (1 = a client per device)")

		// Live migration (see DESIGN.md "Live migration & handover").
		liveMig = flag.Bool("live-migration", false, "edge role: accept and push stateful edge-to-edge handovers; devices role: notify the source edge before each move so it pushes the mover's state")

		// Self-healing membership (see DESIGN.md "Fault model").
		membership = flag.Bool("membership", false, "cloud role: self-healing membership mode — edges hold leases, missed leases trigger failover, restarted edges rejoin under a bumped epoch")
		leaseIntv  = flag.Duration("lease-interval", 0, "cloud role: membership lease interval (0 = 500ms)")
		roundIntv  = flag.Duration("round-interval", 0, "cloud role: minimum wall-clock duration per round, pacing the schedule against device mobility and attachment (0 = free-running)")
		devLease   = flag.Int("device-lease-rounds", 0, "edge role: evict a device alone on its connection not seen for this many rounds (0 = off)")
		failover   = flag.Bool("failover", false, "devices role: when an edge dies, re-home its devices to the surviving -edgeaddrs entries carrying their local state")
	)
	flag.Parse()

	interval := *tsdbIntv
	if interval <= 0 && (*metrics != "" || *sloRules != "") {
		interval = time.Second
	}
	// Events go to stderr as before; with the flight recorder armed they
	// additionally tee into its bounded ring so bundles carry the most
	// recent events.
	var eventRing *flight.EventRing
	if *flightDir != "" {
		eventRing = flight.NewEventRing(0)
	}
	flagExtra := map[string]any{}
	flag.VisitAll(func(f *flag.Flag) { flagExtra[f.Name] = f.Value.String() })
	m, err := experiments.StartMetricsConfig(experiments.MetricsConfig{
		Addr:            *metrics,
		TSDBInterval:    interval,
		SLORules:        *sloRules,
		Events:          obs.NewEmitter(eventRing.Tee(os.Stderr)),
		FlightDir:       *flightDir,
		ProfileInterval: *profIntv,
		FlightManifest:  obs.Manifest{Name: "middled-" + *role, Command: os.Args, Extra: flagExtra},
		FlightEvents:    eventRing,
	})
	if err != nil {
		fatal(err)
	}
	if m != nil {
		if addr := m.Addr(); addr != "" {
			log.Printf("middled: metrics listening on %s", addr)
		}
		m.SetStatus("role", *role)
		m.SetStatus("task", *task)
		m.SetStatus("scale", *scale)
		defer m.Close()
	}
	// Forensic hooks: panics under main, SIGQUIT (bundle + exit 2) and
	// SIGUSR1 (bundle, keep running) all leave a postmortem. These defers
	// run before m.Close, so captures see live state.
	flightRec = m.Flight()
	defer flightRec.CapturePanic()
	defer flightRec.NotifySignals()()
	// The trace backing /debug/trace doubles as the -trace-out source;
	// with metrics disabled a standalone collector still feeds the file.
	trace := m.Trace()
	if *traceOut != "" && trace == nil {
		trace = obs.NewTrace(0)
	}
	defer writeTrace(trace, *traceOut)

	agg, err := middle.ParseAggregator(*aggName)
	if err != nil {
		fatal(err)
	}
	validate := middle.ValidatorConfig{}
	if *normBound > 0 {
		validate = middle.ValidatorConfig{Enabled: true, NormBound: *normBound}
	}

	setup := experiments.NewTaskSetup(data.TaskName(*task), experiments.Scale(*scale), *seed)
	setup.Obs = m.Registry()
	switch *role {
	case "cloud":
		runCloud(setup, m, trace, *results, *addr, *edgesN, *rounds, *tc, *seed, *ckptDir, *ckptEvery, *minEdges, *shards, agg, *trimFrac, validate, *membership, *leaseIntv, *roundIntv)
	case "edge":
		runEdge(setup, m, trace, *id, *cloud, *addr, *strategy, *k, *seed, *quorum, *roundDL,
			agg, *trimFrac, validate, *selNormCap, *ckptDir, *ckptEvery, *liveMig, *devLease)
	case "devices":
		faults := fednet.NewFaultInjector(fednet.FaultConfig{
			Seed: *faultSeed,
			DeviceEdge: fednet.FaultRates{
				Drop: *dropRate, Delay: *delayRate, Corrupt: *corrRate,
				Poison: *poisonRate, NaNUpdate: *nanRate,
			},
			Obs: m.Registry(),
		})
		runDevices(setup, m, trace, *edgeList, *strategy, *from, *to, *p, *moveMs, *seed, *mux, faults, *liveMig, *failover)
	default:
		fmt.Fprintln(os.Stderr, "middled: -role must be cloud, edge or devices")
		flag.Usage()
		os.Exit(2)
	}

	// The coordinating role gates its exit code on the run's SLOs: any
	// rule that fired at any point fails the process even if it later
	// recovered, so CI catches transient regressions.
	if *role == "cloud" {
		if breached := m.FinalizeSLO(); len(breached) > 0 {
			writeTrace(trace, *traceOut)
			m.Close()
			fatalf("middled: SLO breach: %s", strings.Join(breached, ", "))
		}
	}
}

// flightRec is the process flight recorder (nil unless -flight-dir).
// fatal and fatalf capture a postmortem bundle before exiting, so fatal
// paths leave forensics behind; both are nil-safe.
var flightRec *flight.Recorder

func fatal(v ...any) {
	_, _ = flightRec.Capture("fatal " + fmt.Sprint(v...))
	log.Fatal(v...)
}

func fatalf(format string, v ...any) {
	_, _ = flightRec.Capture("fatal " + fmt.Sprintf(format, v...))
	log.Fatalf(format, v...)
}

// writeTrace dumps the collected spans on clean exit (no-op when
// -trace-out is unset). Each role records only its own spans; parent
// references may point at spans in another role's file.
func writeTrace(trace *obs.Trace, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("middled: creating %s: %v", path, err)
		return
	}
	defer f.Close()
	if err := trace.WriteJSON(f); err != nil {
		log.Printf("middled: writing %s: %v", path, err)
		return
	}
	log.Printf("middled: wrote trace %s (%d spans)", path, trace.Len())
}

// writeSummary records the run manifest + metrics snapshot (no-op when
// metrics or -results are disabled).
func writeSummary(m *experiments.Metrics, dir, name string, extra map[string]any) {
	path, err := m.WriteSummary(dir, name, os.Args, extra)
	if err != nil {
		log.Printf("middled: writing summary: %v", err)
		return
	}
	if path != "" {
		log.Printf("middled: wrote summary %s", path)
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

// evalAccuracy measures a model vector's accuracy over the task's whole
// test set (the cloud role's end-of-run quality line).
func evalAccuracy(setup *experiments.TaskSetup, seed int64, vec []float64) float64 {
	net := setup.Factory(tensor.Split(seed, 77))
	net.SetParamVector(vec)
	test := setup.Test
	if test == nil || test.Len() == 0 {
		return 0
	}
	correct := 0.0
	for lo := 0; lo < test.Len(); lo += 256 {
		hi := lo + 256
		if hi > test.Len() {
			hi = test.Len()
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y := test.Batch(idx)
		correct += nn.Accuracy(net.Forward(x, false), y) * float64(len(y))
	}
	return correct / float64(test.Len())
}

func runCloud(setup *experiments.TaskSetup, m *experiments.Metrics, trace *obs.Trace, results, addr string, edges, rounds, tc int, seed int64, ckptDir string, ckptEvery, minEdges, shards int, agg middle.AggregatorKind, trimFrac float64, validate middle.ValidatorConfig, membership bool, leaseIntv, roundIntv time.Duration) {
	init := setup.Factory(tensor.Split(seed, 0)).ParamVector()
	c, err := fednet.NewCloud(fednet.CloudConfig{
		Addr: addr, Edges: edges, Rounds: rounds, CloudInterval: tc,
		InitModel: init, MinEdges: minEdges, Shards: shards,
		CheckpointDir: ckptDir, CheckpointEvery: ckptEvery,
		Aggregator: agg, TrimFrac: trimFrac, Validate: validate,
		Membership:    fednet.MembershipConfig{Enabled: membership, LeaseInterval: leaseIntv},
		RoundInterval: roundIntv,
		Logf:          log.Printf, Obs: m.Registry(), Trace: trace,
	})
	if err != nil {
		fatal(err)
	}
	// Graceful shutdown: finish the in-flight round, write a final
	// checkpoint, then let the deferred trace/tsdb flushes run.
	onSignal(c.Stop)
	log.Printf("middled: cloud listening on %s (%d edges, %d rounds, Tc=%d, shards=%d, membership=%v)", c.Addr(), edges, rounds, tc, shards, membership)
	if err := c.Run(); err != nil {
		fatal(err)
	}
	acc := evalAccuracy(setup, seed, c.GlobalModel())
	log.Printf("middled: training complete (final accuracy %.4f)", acc)
	extra := map[string]any{"final_accuracy": acc}
	if membership {
		extra["membership_epoch"] = c.Epoch()
		log.Printf("middled: membership epoch at exit: %d", c.Epoch())
	}
	writeSummary(m, results, "middled-cloud", extra)
}

func runEdge(setup *experiments.TaskSetup, m *experiments.Metrics, trace *obs.Trace, id int, cloudAddr, addr, strategy string, k int, seed int64, quorum int, roundDL time.Duration, agg middle.AggregatorKind, trimFrac float64, validate middle.ValidatorConfig, selNormCap float64, ckptDir string, ckptEvery int, liveMig bool, devLease int) {
	if cloudAddr == "" {
		fatal("middled: edge role requires -cloud")
	}
	strat, err := middle.StrategyByName(strategy)
	if err != nil {
		fatal(err)
	}
	e, err := fednet.NewEdge(fednet.EdgeConfig{
		EdgeID: id, CloudAddr: cloudAddr, Addr: addr,
		K: k, Strategy: strat, Seed: seed, Logf: log.Printf,
		Quorum: quorum, RoundDeadline: roundDL,
		Aggregator: agg, TrimFrac: trimFrac, Validate: validate,
		SelectionNormCap: selNormCap,
		CheckpointDir:    ckptDir, CheckpointEvery: ckptEvery,
		LiveMigration:     liveMig,
		DeviceLeaseRounds: devLease,
		Obs:               m.Registry(), Trace: trace,
	})
	if err != nil {
		fatal(err)
	}
	// Graceful shutdown: drop the cloud link so Run drains, checkpoints
	// and shuts its devices down before returning nil.
	onSignal(e.Stop)
	log.Printf("middled: edge %d serving devices on %s (strategy %s)", id, e.Addr(), strategy)
	if err := e.Run(); err != nil {
		fatal(err)
	}
	log.Printf("middled: edge %d done", id)
}

// checkDevicesArgs validates the devices role's arguments against a
// partition of numDevices devices, returning the edge address list, the
// strategy the devices build their start models with and the failover
// candidates. With -failover every listed edge is a re-home candidate: a
// device whose edge stops answering re-registers at a survivor on its
// own, carrying its local model and round bookkeeping.
func checkDevicesArgs(edgeList, strategy string, from, to, numDevices, mux int, failover bool) ([]string, middle.Strategy, []fednet.EdgeAddr, error) {
	addrs := strings.Split(edgeList, ",")
	if addrs[0] == "" {
		return nil, nil, nil, fmt.Errorf("devices role requires -edgeaddrs")
	}
	strat, err := middle.StrategyByName(strategy)
	if err != nil {
		return nil, nil, nil, err
	}
	if mux < 1 {
		return nil, nil, nil, fmt.Errorf("-mux must be ≥ 1, got %d", mux)
	}
	if to >= numDevices || from < 0 || from > to {
		return nil, nil, nil, fmt.Errorf("device range %d..%d outside partition of %d", from, to, numDevices)
	}
	var candidates []fednet.EdgeAddr
	if failover {
		for e, a := range addrs {
			candidates = append(candidates, fednet.EdgeAddr{ID: e, Addr: a})
		}
	}
	return addrs, strat, candidates, nil
}

func runDevices(setup *experiments.TaskSetup, m *experiments.Metrics, trace *obs.Trace, edgeList, strategy string, from, to int, p float64, moveMs int, seed int64, mux int, faults *fednet.FaultInjector, liveMig, failover bool) {
	part := setup.Partition(seed)
	addrs, strat, candidates, err := checkDevicesArgs(edgeList, strategy, from, to, part.NumDevices(), mux, failover)
	if err != nil {
		fatalf("middled: %v", err)
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
			Strategy: strat, Seed: seed, Faults: faults,
			Failover: candidates, Logf: log.Printf,
			Obs: m.Registry(), Trace: trace,
		})
		if err != nil {
			fatal(err)
		}
		clients = append(clients, mx)
	}
	log.Printf("middled: hosting devices %d..%d on %d clients (%d devices each)", from, to, len(clients), mux)
	connect := func(i, edgeID int) error { return clients[i/mux].Connect(from+i, edgeID, addrs[edgeID]) }
	mob := mobility.NewMarkovRing(len(addrs), n, p, seed+int64(from))
	membership := mob.Step()
	for i := range membership {
		if err := connect(i, membership[i]); err != nil {
			fatal(err)
		}
		log.Printf("middled: device %d attached to edge %d", from+i, membership[i])
	}
	generations := make([]int, n)
	strandedGauge := m.Registry().Gauge("fednet_stranded_devices")
	stop := make(chan struct{})
	onSignal(func() { close(stop) })
	ticker := time.NewTicker(time.Duration(moveMs) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			// Graceful shutdown: detach every device cleanly so the edges
			// see deliberate disconnects, then let the deferred trace and
			// metrics flushes run.
			for _, mx := range clients {
				mx.Disconnect()
			}
			log.Printf("middled: devices %d..%d detached", from, to)
			return
		case <-ticker.C:
		}
		next := mob.Step()
		for i := range next {
			if next[i] == membership[i] {
				continue
			}
			if liveMig {
				// Ask the current edge to push this device's state to the
				// destination before we tear the old attachment down.
				// Best-effort: a lost notice only costs the warm handover.
				generations[i]++
				if err := fednet.NotifyMove(addrs[membership[i]], fednet.MoveNotice{
					DeviceID: from + i, DestEdge: next[i], DestAddr: addrs[next[i]],
					Generation: generations[i],
				}, 5*time.Second); err != nil {
					log.Printf("middled: device %d move notice to edge %d failed: %v", from+i, membership[i], err)
				}
			}
			err := connect(i, next[i])
			if err != nil && failover {
				// The intended edge may be dead; try the other candidates
				// in order so the device keeps training somewhere.
				for off := 1; off < len(addrs) && err != nil; off++ {
					alt := (next[i] + off) % len(addrs)
					if err = connect(i, alt); err == nil {
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
