package main

import (
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"middle/internal/data"
	"middle/internal/fednet"
	"middle/internal/mobility"
	"middle/internal/nn"
	"middle/internal/obs"
	"middle/internal/robust"
)

// netCounts is what the deployment's fednet_* series and accessors add
// up to over the timed window.
type netCounts struct {
	clusterStart time.Duration // StartCluster alone, last set-up

	linkBytes map[string]float64 // sent bytes per link class
	msgs      float64
	retries   float64
	reconns   float64

	// Mean seconds of the fednet_rpc_seconds ops and of a handover.
	trainRPC, deviceTrain, edgeRound, cloudRound, handover float64

	migOK, migFallback, migRejected int
}

// series is one scrape of a registry: counters by full series name and
// histograms as (sum, count).
type series struct {
	value map[string]float64
	sum   map[string]float64
	count map[string]float64
}

func scrape(reg *obs.Registry) series {
	s := series{map[string]float64{}, map[string]float64{}, map[string]float64{}}
	for _, sv := range reg.Collect() {
		if sv.Hist != nil {
			s.sum[sv.Name], s.count[sv.Name] = sv.Hist.Sum, float64(sv.Hist.Count)
		} else {
			s.value[sv.Name] = sv.Value
		}
	}
	return s
}

// meanSince is the mean of a histogram's observations made after prev.
func (s series) meanSince(prev series, name string) float64 {
	if n := s.count[name] - prev.count[name]; n > 0 {
		return (s.sum[name] - prev.sum[name]) / n
	}
	return 0
}

// evaluator scores a model vector on the test set, outside the engine.
type evaluator struct {
	net  *nn.Network
	test *data.Dataset
}

func (e *evaluator) accuracy(vec []float64) float64 {
	e.net.SetParamVector(vec)
	correct := 0
	all := e.test.All()
	for lo := 0; lo < len(all); lo += 64 {
		x, y := e.test.Batch(all[lo:min(lo+64, len(all))])
		for i, p := range e.net.Forward(x, false).ArgMaxRows() {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(all))
}

// roundClock is the mobility decorator of the deployment runs. The
// cloud's OnRound hook calls Mobility.Step exactly once between rounds,
// synchronously, so Step is the round boundary seen from outside: a
// round lasts from the exit of one Step to the entry of the next, and
// everything the benchmark does per round (evaluate the global model,
// decide to stop) happens inside Step, where no round is in flight.
//
// Rounds run while StartCluster is still attaching devices; the clock
// ignores them and opens the timed window at the first boundary after
// arm, when every device is attached.
type roundClock struct {
	mobility.Model
	w       *workload
	seconds time.Duration
	rec     *recorder
	reg     *obs.Registry
	eval    *evaluator
	m       *measured

	cluster atomic.Pointer[fednet.Cluster]

	// Touched only by the goroutine calling Step once armed; main reads
	// them after Cluster.Wait.
	started, done bool
	start, exit   time.Time
	prev          []int
	root, round   int
	ms0           runtime.MemStats
	s0            series
	trained0      int
}

func (c *roundClock) arm(cl *fednet.Cluster) { c.cluster.Store(cl) }

func trainedTotal(cl *fednet.Cluster) int {
	n := 0
	for _, r := range cl.DeviceRounds() {
		n += r
	}
	return n
}

func (c *roundClock) Step() []int {
	cl := c.cluster.Load()
	if cl == nil || c.done {
		return c.Model.Step()
	}
	entry := time.Now()
	m := c.m
	if !c.started {
		c.started = true
		runtime.ReadMemStats(&c.ms0)
		c.s0 = scrape(c.reg)
		c.trained0 = trainedTotal(cl)
		c.root = c.rec.open("run", 0, entry)
	} else {
		m.rounds = append(m.rounds, entry.Sub(c.exit))
		c.rec.close(c.round, entry)
		n := len(m.rounds)
		if n%c.w.evalEvery == 0 {
			acc := c.eval.accuracy(cl.GlobalModel())
			now := time.Now()
			c.rec.close(c.rec.open("hfl.eval", c.root, entry), now)
			m.evaluated(c.w, n, now.Sub(c.start), now.Sub(entry), acc)
		}
		now := time.Now()
		if n == c.w.fixedRounds {
			m.fixedWall = now.Sub(c.start)
		}
		if n >= c.w.fixedRounds && now.Sub(c.start) >= c.seconds {
			c.finish(cl, now)
			return c.Model.Step()
		}
	}
	stepStart := time.Now()
	next := c.Model.Step()
	c.exit = time.Now()
	c.rec.close(c.rec.open("mobility.step", c.root, stepStart), c.exit)
	if c.prev != nil {
		m.moves += countMoves(c.prev, next)
	} else {
		c.start = c.exit
	}
	c.prev = next
	m.selected += selectedTrainings(next, c.w.edges, c.w.k)
	c.round = c.rec.open("fednet.round", c.root, c.exit)
	c.rec.setCurrent(c.round)
	return next
}

// finish closes the timed window and asks the cloud to stop; the cloud
// returns from its round loop as soon as OnRound does.
func (c *roundClock) finish(cl *fednet.Cluster, now time.Time) {
	m := c.m
	c.done = true
	m.wall = now.Sub(c.start)
	c.rec.close(c.root, now)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - c.ms0.TotalAlloc
	m.completed = trainedTotal(cl) - c.trained0

	s1 := scrape(c.reg)
	nc := &m.net
	nc.linkBytes = map[string]float64{}
	for name, v := range s1.value {
		d := v - c.s0.value[name]
		switch {
		case strings.HasPrefix(name, "fednet_sent_bytes_total{"):
			link := strings.TrimSuffix(strings.TrimPrefix(name, `fednet_sent_bytes_total{link="`), `"}`)
			nc.linkBytes[link] = d
			m.wireBytes += d
		case strings.HasPrefix(name, "fednet_sent_msgs_total{"):
			nc.msgs += d
		case name == "fednet_retries_total":
			nc.retries = d
		case name == "fednet_device_reconnects_total":
			nc.reconns = d
		}
	}
	rpc := func(op string) float64 { return s1.meanSince(c.s0, `fednet_rpc_seconds{op="`+op+`"}`) }
	nc.trainRPC, nc.deviceTrain = rpc("train_rpc"), rpc("device_train")
	nc.edgeRound, nc.cloudRound = rpc("edge_round"), rpc("cloud_round")
	nc.handover = s1.meanSince(c.s0, "fednet_handover_seconds")
	cl.Stop()
}

// startCluster builds the workload's inputs and deployment around a
// fresh round clock. End-to-end runs carry a registry too: the byte
// counts of wire_mb_per_round exist nowhere else, and the series cost a
// few atomic adds per 415 KB frame. Only the untraced half of a traced
// run goes without, so obs.trace_overhead_ratio includes that cost.
func startCluster(w *workload, seed int64, seconds time.Duration, rec *recorder, reg *obs.Registry, m *measured) (*roundClock, *fednet.Cluster, error) {
	in := w.build(seed)
	clock := &roundClock{
		Model: in.mob, w: w, seconds: seconds, rec: rec, reg: reg, m: m,
		eval: &evaluator{net: in.factory(nil), test: in.test},
	}
	strategy := in.strategy
	if rec != nil {
		strategy = &spanStrategy{Strategy: in.strategy, rec: rec}
	}
	begin := time.Now()
	cl, err := fednet.StartCluster(fednet.ClusterConfig{
		// The clock stops the run; the cloud's own horizon never does.
		Rounds: 1 << 30,
		K:      w.k, LocalSteps: w.localSteps, BatchSize: w.batch, CloudInterval: w.tc,
		Strategy: strategy, Partition: in.part, Factory: in.factory,
		Optimizer: in.optimizer, Mobility: clock, Seed: seed,
		LiveMigration: w.liveMigration, Obs: reg,
	})
	m.net.clusterStart = time.Since(begin)
	return clock, cl, err
}

// runNet drives a loopback fednet cluster closed-loop (the cloud starts
// round t+1 when round t is acknowledged by every edge).
func runNet(w *workload, seed int64, seconds time.Duration, rec *recorder, registry bool) *measured {
	m := &measured{}
	var clock *roundClock
	var cl *fednet.Cluster
	for i := 0; i < w.setupRuns; i++ {
		if cl != nil {
			// A set-up that was only timed: stop it before the next.
			cl.Stop()
			if err := cl.Wait(); err != nil {
				m.fail("throwaway cluster: %v", err)
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		var reg *obs.Registry
		if registry {
			reg = obs.NewRegistry()
		}
		clock, cl, err = startCluster(w, seed, seconds, rec, reg, m)
		if err != nil {
			m.fail("StartCluster: %v", err)
			return m
		}
		m.setups = append(m.setups, time.Since(start))
	}
	clock.arm(cl)
	if err := cl.Wait(); err != nil {
		m.fail("Cluster.Wait: %v", err)
	}
	m.peakRSS = obs.PeakRSSBytes()

	m.finite = robust.IsFinite(cl.GlobalModel())
	if n := cl.MoveErrors(); n > 0 {
		m.fail("%d device moves failed", n)
	}
	if s := cl.Stranded(); len(s) > 0 {
		m.fail("%d devices stranded: %v", len(s), s)
	}
	m.net.migOK, m.net.migFallback, m.net.migRejected = cl.Migrations()
	return m
}
