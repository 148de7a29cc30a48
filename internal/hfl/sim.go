package hfl

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"middle/internal/data"
	"middle/internal/mobility"
	"middle/internal/obs/flight"
	"middle/internal/robust"
	"middle/internal/simil"
	"middle/internal/tensor"
)

// Sim is one device-edge-cloud federated training run. Construct with
// New, drive with Run (or StepOnce for fine-grained control), and read
// results from the returned History.
type Sim struct {
	cfg   Config
	part  *data.Partition // New's data; nil on NewWithUpdater's seam
	test  *data.Dataset
	mob   mobility.Model
	strat Strategy

	numEdges   int
	numDevices int
	step       int // completed time steps (1-based after first StepOnce)

	cloud      []float64
	edges      [][]float64
	store      deviceStore
	dataSizes  []int // d_m on NewWithUpdater's seam; New reads the shard
	statUtil   []float64
	lastTrain  []int32   // step of the last training, -1 before the first
	edgeWeight []float64 // d̂_n accumulators since last cloud sync
	membership []int
	upcoming   []int // M^{t+1}, drawn while round t trained; nil when not drawn
	moves      int   // cross-edge moves observed
	moveTotal  int
	// pendingFlow holds the moves of the membership drawn last and not yet
	// recorded: count[from*numEdges+to], and the pairs it is nonzero at.
	pendingFlow struct {
		count []int32
		pairs []int
	}

	// Robustness layer (PR 5). agg is the aggregate step both tiers share:
	// the Config.Validate screen followed by the pluggable Eq. 6/Eq. 7
	// combiner (zero config: no screen, the bit-identical weighted mean).
	agg         *robust.Point
	corruptions int          // adversary-corrupted uploads
	nonfinite   atomic.Int64 // SGD steps skipped on non-finite loss

	// Communication accounting: model transfers on each link class.
	// Every selected device downloads the edge model and uploads its
	// local model (2 transfers); every cloud sync exchanges edge models
	// up and the global model down (2 per participating edge).
	commDeviceEdge int64
	commEdgeCloud  int64

	workers  []*worker  // one per pool goroutine
	trainers []*Trainer // New's networks behind the workers; evaluation runs on them
	history  *History

	// phases accumulates the always-on per-phase wall-clock breakdown;
	// metrics mirrors it (plus counters) into cfg.Obs when set. tel does
	// the same for the learning-dynamics quantities (Eq. 12 utilities,
	// update norms, blend utilities, participation, mobility flow).
	phases  PhaseTimes
	metrics simMetrics
	tel     *telemetry

	// Per-step scratch, reused across StepOnce calls so the steady-state
	// loop performs no per-step slice allocations of its own. The model
	// vectors in cloud/edges/locals keep their backing arrays for the
	// lifetime of the Sim; aggregation writes into them in place.
	// cands holds every device id once, as int32 (4 bytes per device),
	// grouped by edge: edge n's candidates, ascending, are
	// cands[candStart[n]:candStart[n+1]]. rangeAt is the sweep's
	// Parallelism × numEdges table of per-range counts and write cursors.
	// selected is the engine's copy of each edge's Strategy.Select result.
	cands      []int32
	candStart  []int
	rangeAt    []int
	selected   [][]int
	jobs       []trainJob
	aggVecs    [][]float64
	aggWeights []float64
}

// New builds a simulation. The partition defines the device population
// and their Non-IID shards; the mobility model must cover the same
// number of devices. The initial global model is drawn deterministically
// from cfg.Seed and installed on the cloud, every edge and every device.
func New(cfg Config, factory ModelFactory, part *data.Partition, test *data.Dataset, mob mobility.Model, strat Strategy) *Sim {
	cfg = cfg.withDefaults()
	var trainers []*Trainer
	s := newSim(cfg, factory(tensor.Split(cfg.Seed, 0)).ParamVector(), part.NumDevices(), func(i int) DeviceUpdater {
		tw := &Trainer{Net: factory(tensor.Split(cfg.Seed, int64(100+i))), Opt: cfg.Optimizer.New()}
		trainers = append(trainers, tw)
		return shardUpdater{Trainer: tw, part: part, batch: cfg.BatchSize, schedule: cfg.LRSchedule != nil}
	}, mob, strat)
	s.part, s.test, s.trainers = part, test, trainers
	return s
}

// NewWithUpdater builds a simulation whose devices train through
// updater(w), called once per pool worker w: init is installed on the
// cloud, every edge and every device, and sizes[m] is d_m. Such a Sim
// has no test set, so it panics if cfg.EvalEvery > 0.
func NewWithUpdater(cfg Config, init []float64, sizes []int, updater func(worker int) DeviceUpdater, mob mobility.Model, strat Strategy) *Sim {
	if cfg.EvalEvery > 0 {
		panic("hfl: a Sim built on a DeviceUpdater has no test set to evaluate on; leave EvalEvery 0")
	}
	s := newSim(cfg.withDefaults(), init, len(sizes), updater, mob, strat)
	s.dataSizes = sizes
	return s
}

// newSim is New's and NewWithUpdater's construction; init becomes the cloud vector.
func newSim(cfg Config, init []float64, devices int, updater func(worker int) DeviceUpdater, mob mobility.Model, strat Strategy) *Sim {
	if devices != mob.NumDevices() {
		panic(fmt.Sprintf("hfl: %d devices have data but the mobility model has %d", devices, mob.NumDevices()))
	}
	s := &Sim{
		cfg:        cfg,
		mob:        mob,
		strat:      strat,
		numEdges:   mob.NumEdges(),
		numDevices: mob.NumDevices(),
		cloud:      init,
	}
	s.edges = make([][]float64, s.numEdges)
	for n := range s.edges {
		s.edges[n] = cloneVec(init)
	}
	if cfg.ResidentCap > 0 && cfg.ResidentCap < cfg.K*s.numEdges {
		panic(fmt.Sprintf("hfl: ResidentCap %d cannot hold one full cohort (K=%d × %d edges = %d); raise the cap or lower K",
			cfg.ResidentCap, cfg.K, s.numEdges, cfg.K*s.numEdges))
	}
	if cfg.LazyStore {
		s.store = newLazyStore(s.cloud, s.numDevices, cfg.ResidentCap)
	} else {
		s.store = newDenseStore(s.cloud, s.numDevices)
	}
	s.statUtil = make([]float64, s.numDevices)
	s.lastTrain = make([]int32, s.numDevices)
	for m := 0; m < s.numDevices; m++ {
		s.statUtil[m] = math.NaN()
		s.lastTrain[m] = -1
	}
	s.edgeWeight = make([]float64, s.numEdges)
	s.candStart = make([]int, s.numEdges+1)
	s.rangeAt = make([]int, min(cfg.Parallelism, s.numDevices)*s.numEdges)
	s.pendingFlow.count = make([]int32, s.numEdges*s.numEdges)
	s.selected = make([][]int, s.numEdges)
	mob.Reset()
	s.membership = mob.Step() // M^0: membership before the first round
	s.workers = make([]*worker, cfg.Parallelism)
	for i := range s.workers {
		s.workers[i] = &worker{dev: updater(i), rng: tensor.NewRNG(0)}
	}
	s.agg = robust.NewPoint(cfg.Aggregator, cfg.Validate, cfg.Obs)
	s.history = &History{Strategy: strat.Name()}
	s.metrics = newSimMetrics(cfg.Obs)
	s.tel = newTelemetry(cfg.Obs, s.numEdges, s.numDevices)
	cfg.Trace.SetProcessName(0, "sim")
	return s
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

// --- View implementation -------------------------------------------------

// Step returns the number of completed time steps; inside StepOnce,
// where strategies read it, that is the 1-based step being decided.
func (s *Sim) Step() int { return s.step }

// CloudModel returns the current global model vector (read-only).
func (s *Sim) CloudModel() []float64 { return s.cloud }

// EdgeModel returns edge n's model vector (read-only).
func (s *Sim) EdgeModel(edge int) []float64 { return s.edges[edge] }

// LocalModel returns device m's carried local model vector (read-only).
// Under the lazy store a device that has not trained since the last
// cloud sync returns the shared cloud vector itself.
func (s *Sim) LocalModel(device int) []float64 { return s.store.model(device) }

// DriftInfo implements ResidentView: the Eq. 12 fast path for devices
// the store can answer for without touching a full vector.
func (s *Sim) DriftInfo(device int) (utility, deltaNorm float64, known bool) {
	return s.store.drift(device)
}

// ResidentModels returns how many materialized device vectors the
// engine currently holds (always the device count with the dense
// store).
func (s *Sim) ResidentModels() int { return s.store.residentCount() }

// PeakResidentModels returns the run's high-water mark of
// ResidentModels — the number the 1M-device smoke run bounds.
func (s *Sim) PeakResidentModels() int { return s.store.peakResident() }

// DataSize returns d_m.
func (s *Sim) DataSize(device int) int {
	if s.part != nil {
		return len(s.part.Shard(device))
	}
	return s.dataSizes[device]
}

// StatUtility returns the device's Oort statistical utility (NaN before
// its first training round).
func (s *Sim) StatUtility(device int) float64 { return s.statUtil[device] }

// LastTrained returns the step the device last trained at, or -1.
func (s *Sim) LastTrained(device int) int { return int(s.lastTrain[device]) }

// NumEdges returns the edge count.
func (s *Sim) NumEdges() int { return s.numEdges }

// NumDevices returns the device count.
func (s *Sim) NumDevices() int { return s.numDevices }

// Membership returns the devices' current edge assignment, M^t after
// StepOnce has returned t (read-only). It is valid until StepOnce is
// called again: that step draws the following membership into the
// mobility model's storage, which may reuse this one's.
func (s *Sim) Membership() []int { return s.membership }

// History returns the metrics recorded so far.
func (s *Sim) History() *History { return s.history }

// --- engine ---------------------------------------------------------------

type trainJob struct {
	device int
	init   []float64
	out    []float64 // the device's materialized vector; overwritten by the worker
	util   float64
}

// StepOnce advances the simulation by one time step of Algorithm 1 and
// returns the (1-based) step index just completed.
func (s *Sim) StepOnce() int {
	s.step++
	t := s.step
	clock := time.Now()
	roundStart := clock
	movesBefore := s.moves
	s.tel.beginRound()
	// Flight-profiler attribution: each block below is bracketed by a
	// pprof "phase" label matching its sim_phase_seconds series, so the
	// continuous profiler can split CPU/alloc cost per phase. Free (two
	// atomic loads, zero alloc) when no profiler is running.
	fp := flight.BeginPhase("selection")

	// M^t, and its moves against M^{t−1}, were drawn and counted while
	// the previous round trained, except on the first step and after one
	// that drew nothing (t-1 ≥ cfg.Steps). prev stays valid through the
	// step's selected-device loop: a Model's membership lives until the
	// second following Step. Each (from, to) pair that moved enters the
	// flow telemetry once a step.
	prev, next := s.membership, s.upcoming
	if next == nil {
		next = s.mob.Step()
		s.countMoves(prev, next)
	}
	s.membership, s.upcoming = next, nil
	s.moves += int(s.tel.recordFlow(s.pendingFlow.count, s.pendingFlow.pairs))
	s.pendingFlow.pairs = s.pendingFlow.pairs[:0]

	// Line 1: every edge's candidate set, one sweep over the population
	// split across the worker pool.
	s.sweep(next)
	s.moveTotal += s.numDevices

	// Line 2: every edge's cohort, fanned out over the worker pool. Each
	// edge draws from its own selection stream and the view is only read
	// until the last Select returns, so the outcome does not depend on
	// scheduling; everything that mutates state follows below, in edge
	// order. The worker's widened candidate list is reused for its next
	// edge, and a strategy may return a sub-slice of it, so Cohort copies
	// the result into the edge's own buffer.
	selectedByEdge := s.selected
	s.fanOut(s.numEdges, func(w, n int) {
		wk := s.workers[w]
		cands := wk.cands[:0]
		for _, m := range s.cands[s.candStart[n]:s.candStart[n+1]] {
			cands = append(cands, int(m))
		}
		wk.cands = cands
		selectedByEdge[n] = Cohort(selectedByEdge[n][:0], s.strat, s, n, t, s.cfg.K, cands, s.cfg.Seed, wk.rng)
	})
	s.jobs = s.jobs[:0]
	for n, sel := range selectedByEdge {
		s.commDeviceEdge += 2 * int64(len(sel))
		for _, m := range sel {
			moved := next[m] != prev[m]
			// Learning-dynamics telemetry reads the pre-training carried
			// model: the Eq. 12 utility and ‖Δw_m‖ against the cloud, and
			// on a mobility event the Eq. 9 blend utility against the
			// entered edge. Pure reads — results are unaffected. The store
			// fast path answers for non-resident devices without a sweep
			// (exactly 0/0: their carried model IS the cloud vector).
			u, dn, known := s.store.drift(m)
			if !known {
				u, dn = simil.SelectionUtilityNorm(s.cloud, s.store.model(m))
			}
			s.tel.recordSelection(m, u, dn)
			if moved {
				s.tel.recordBlend(simil.Utility(s.store.model(m), s.edges[n]))
			}
			// Lines 4–7: on-device model initialisation. init may be the
			// edge model or the device's carried vector itself (see
			// Strategy.InitLocal): the train phase only reads edge models,
			// and the job writes the trained model into the carried
			// vector — materialized here for lazily-stored devices — only
			// after SetParamVector has copied init out (each device
			// appears in at most one job per step).
			init := s.strat.InitLocal(s, m, n, moved)
			s.jobs = append(s.jobs, trainJob{device: m, init: init, out: s.store.materialize(m)})
		}
	}
	// Nothing reads M^{t−1} from here on, so the model may draw M^{t+1}
	// into its storage, and its moves be counted against M^t, while this
	// round trains, aggregates, syncs and evaluates; the draw is joined
	// before StepOnce returns. The last configured step draws nothing,
	// so Run steps the model cfg.Steps+1 times, M^0 included.
	var draw sync.WaitGroup
	if t < s.cfg.Steps {
		draw.Add(1)
		go func() {
			defer draw.Done()
			fp := flight.BeginPhase("selection")
			s.upcoming = s.mob.Step()
			s.countMoves(next, s.upcoming)
			fp.End()
		}()
	}
	fp.End()
	phaseStart := clock
	clock = phase(&s.phases.Select, s.metrics.selectSpan, clock)
	s.tracePhase("select", t, phaseStart, clock)
	fp = flight.BeginPhase("local_train")

	// Line 8: parallel local training across the worker pool.
	// Each job's randomness derives from (seed, step, device) only, so
	// results do not depend on scheduling.
	jobs := s.jobs
	s.fanOut(len(jobs), func(w, i int) { s.trainDevice(s.workers[w], &jobs[i], t) })
	for i := range jobs {
		j := &jobs[i]
		s.statUtil[j.device] = j.util
		s.lastTrain[j.device] = int32(t)
		s.store.noteTrained(j.device, t)
	}
	// Adversary harness: a seeded subset of devices sign-flips its upload
	// after training around the cloud model, inverting the accumulated
	// update Δw_m = w_m − w_c.
	if s.cfg.Adversary.Enabled() {
		for i := range jobs {
			m := jobs[i].device
			if s.cfg.Adversary.IsAdversary(m) {
				s.cfg.Adversary.Corrupt(jobs[i].out, s.cloud)
				s.corruptions++
				s.metrics.advCorruptions.Inc()
			}
		}
	}
	fp.End()
	phaseStart = clock
	clock = phase(&s.phases.Train, s.metrics.trainSpan, clock)
	s.tracePhase("train", t, phaseStart, clock)
	fp = flight.BeginPhase("edge_agg")

	// Line 9: edge aggregation (Eq. 6), weighted by data sizes. The edge
	// vector is overwritten in place (it never aliases a device vector).
	// Gathering only collects slice headers; with the default mean and no
	// validator the shared step is simil.WeightedAverageInto, bit for bit.
	for n := 0; n < s.numEdges; n++ {
		sel := selectedByEdge[n]
		if len(sel) == 0 {
			continue
		}
		vecs := s.aggVecs[:0]
		weights := s.aggWeights[:0]
		for _, m := range sel {
			vecs = append(vecs, s.store.model(m))
			weights = append(weights, float64(s.DataSize(m)))
		}
		s.aggVecs, s.aggWeights = vecs, weights
		// Rejected updates are left out of Eq. 6; with every update
		// rejected the edge carries its previous model.
		s.edgeWeight[n] += s.aggregate(t, s.edges[n], vecs, weights)
	}
	fp.End()
	phaseStart = clock
	clock = phase(&s.phases.EdgeAgg, s.metrics.edgeAggSpan, clock)
	s.tracePhase("edge_agg", t, phaseStart, clock)

	// Lines 10–15: cloud aggregation (Eq. 7) every T_c steps, then push
	// the new global model down to all edges and devices (copy into the
	// existing vectors; their backing arrays are stable for the run).
	if t%s.cfg.CloudInterval == 0 {
		fp = flight.BeginPhase("cloud_sync")
		vecs := s.aggVecs[:0]
		weights := s.aggWeights[:0]
		for n := 0; n < s.numEdges; n++ {
			if s.edgeWeight[n] > 0 {
				vecs = append(vecs, s.edges[n])
				weights = append(weights, s.edgeWeight[n])
			}
		}
		s.aggVecs, s.aggWeights = vecs, weights
		s.commEdgeCloud += 2 * int64(len(vecs))
		s.aggregate(t, s.cloud, vecs, weights)
		for n := range s.edges {
			copy(s.edges[n], s.cloud)
			s.edgeWeight[n] = 0
		}
		s.store.cloudSynced()
		s.metrics.cloudSyncs.Inc()
		fp.End()
		phaseStart = clock
		clock = phase(&s.phases.CloudSync, s.metrics.cloudSyncSpan, clock)
		s.tracePhase("cloud_sync", t, phaseStart, clock)
	}

	if s.cfg.EvalEvery > 0 && (t%s.cfg.EvalEvery == 0 || t == s.cfg.Steps) {
		fp = flight.BeginPhase("eval")
		s.recordEval(t)
		s.metrics.evals.Inc()
		fp.End()
		phaseStart = clock
		clock = phase(&s.phases.Eval, s.metrics.evalSpan, clock)
		s.tracePhase("eval", t, phaseStart, clock)
	}
	draw.Wait()

	s.store.endStep(t)
	s.metrics.roundSpan.Observe(time.Since(roundStart))
	s.metrics.steps.Inc()
	s.metrics.selected.Add(int64(len(s.jobs)))
	s.metrics.moves.Add(int64(s.moves - movesBefore))
	s.metrics.moveOpp.Add(int64(s.numDevices))
	s.tel.participants.Set(float64(len(s.jobs)))
	if s.tel.fairness != nil {
		s.tel.fairness.Set(s.tel.fairnessJain())
	}
	if tr := s.cfg.Trace; tr != nil {
		end := time.Now()
		tr.Complete("round", "hfl", 0, 0, roundStart, end.Sub(roundStart),
			"r"+strconv.Itoa(t), "", map[string]any{"step": t, "selected": len(s.jobs)})
	}
	if em := s.cfg.Events; em != nil {
		em.Emit("round",
			"step", t,
			"selected", len(s.jobs),
			"sel_util_mean", meanOf(s.tel.roundSelUtilSum, s.tel.roundSelUtilN),
			"upd_norm_mean", meanOf(s.tel.roundUpdNormSum, s.tel.roundSelUtilN),
			"blend_util_mean", meanOf(s.tel.roundBlendUtilSum, s.tel.roundBlendUtilN),
			"blend_events", s.tel.roundBlendUtilN,
			"moves", s.moves-movesBefore)
	}
	return t
}

// tracePhase records one StepOnce phase as a child span of the round's
// trace span. No-op (and allocation-free) when tracing is disabled.
func (s *Sim) tracePhase(name string, t int, start, end time.Time) {
	tr := s.cfg.Trace
	if tr == nil {
		return
	}
	rid := "r" + strconv.Itoa(t)
	tr.Complete(name, "hfl", 0, 0, start, end.Sub(start), rid+"."+name, rid, nil)
}

// aggregate runs the shared aggregate step on one aggregation point's
// received updates, in place over model (which is also the pre-round
// reference the validator measures against), and returns the weight that
// entered it. Rejections additionally leave a robust_reject trace span.
func (s *Sim) aggregate(t int, model []float64, vecs [][]float64, weights []float64) float64 {
	out := s.agg.Combine(model, model, vecs, weights, 1)
	if tr := s.cfg.Trace; tr != nil && out.Rejects.Total() > 0 {
		rid := "r" + strconv.Itoa(t)
		tr.Complete("robust_reject", "hfl", 0, 0, time.Now(), 0,
			rid+".robust_reject", rid,
			map[string]any{"nonfinite": out.Rejects.NonFinite, "norm": out.Rejects.Norm})
	}
	return out.Weight
}

// fanOut runs fn(w, i) for every i in [0, n) on at most Parallelism
// goroutines and returns when all calls have; w < Parallelism identifies
// the goroutine making the call. Which goroutine gets which i is not
// fixed, so fn's result must not depend on it.
func (s *Sim) fanOut(n int, fn func(w, i int)) {
	workers := min(len(s.workers), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// sweep groups membership's devices by edge into s.cands, a counting
// sort over Parallelism contiguous device ranges: each range counts its
// devices per edge, the blocks are laid out edge by edge and, inside an
// edge, range by range, and each range writes its devices into its own
// blocks in ascending order. So edge n's candidates come out ascending
// whatever the range count, as one serial pass would list them.
func (s *Sim) sweep(membership []int) {
	ranges, edges := len(s.rangeAt)/s.numEdges, s.numEdges
	if s.cands == nil {
		s.cands = make([]int32, len(membership))
	}
	span := func(r int) (lo int, part []int) {
		lo = r * len(membership) / ranges
		return lo, membership[lo : (r+1)*len(membership)/ranges]
	}
	s.fanOut(ranges, func(_, r int) {
		count := s.rangeAt[r*edges : (r+1)*edges]
		clear(count)
		_, part := span(r)
		for _, e := range part {
			count[e]++
		}
	})
	at := 0
	for n := 0; n < edges; n++ {
		s.candStart[n] = at
		for r := 0; r < ranges; r++ {
			c := s.rangeAt[r*edges+n]
			s.rangeAt[r*edges+n] = at
			at += c
		}
	}
	s.candStart[edges] = at
	s.fanOut(ranges, func(_, r int) {
		cursor := s.rangeAt[r*edges : (r+1)*edges]
		lo, part := span(r)
		for i, e := range part {
			s.cands[cursor[e]] = int32(lo + i)
			cursor[e]++
		}
	})
}

// countMoves diffs next against prev into s.pendingFlow in one serial
// pass: on the draw goroutine beside training, or before selecting in a
// step that drew its own membership.
func (s *Sim) countMoves(prev, next []int) {
	f := &s.pendingFlow
	for m, to := range next {
		if from := prev[m]; from != to {
			i := from*s.numEdges + to
			if f.count[i] == 0 {
				f.pairs = append(f.pairs, i)
			}
			f.count[i]++
		}
	}
}

// trainDevice runs one job's local round (Eq. 5) on a pool worker and
// fills in the resulting model vector and Oort statistical utility.
func (s *Sim) trainDevice(w *worker, job *trainJob, t int) {
	BatchStream(w.rng, s.cfg.Seed, t, job.device, s.numDevices)
	lr := s.cfg.Optimizer.LR
	if s.cfg.LRSchedule != nil {
		lr = s.cfg.LRSchedule.At(t)
	}
	util, skipped := w.dev.UpdateDevice(job.device, job.init, job.out, s.cfg.LocalSteps, lr, w.rng)
	job.util = util
	s.nonfinite.Add(int64(skipped))
	s.metrics.nonfiniteSteps.Add(int64(skipped))
}

// Run executes the configured number of time steps and returns the
// recorded history.
func (s *Sim) Run() *History {
	for s.step < s.cfg.Steps {
		s.StepOnce()
	}
	s.history.EmpiricalMobility = s.ObservedMobility()
	s.history.PeakResidentModels = s.PeakResidentModels()
	return s.history
}

// CommCounts returns the cumulative number of model transfers on the
// device–edge and edge–cloud links (one transfer = one full model).
func (s *Sim) CommCounts() (deviceEdge, edgeCloud int64) {
	return s.commDeviceEdge, s.commEdgeCloud
}

// RejectedUpdates returns the cumulative validation rejections by
// reason (zero with Config.Validate off).
func (s *Sim) RejectedUpdates() robust.RejectCounts { return s.agg.Rejected }

// RejectionRate returns the fraction of updates offered to Eq. 6/Eq. 7
// that validation rejected so far.
func (s *Sim) RejectionRate() float64 {
	if s.agg.Seen == 0 {
		return 0
	}
	return float64(s.agg.Rejected.Total()) / float64(s.agg.Seen)
}

// AdversaryCorruptions returns how many uploads the adversary harness
// corrupted so far.
func (s *Sim) AdversaryCorruptions() int { return s.corruptions }

// NonFiniteSteps returns how many local SGD steps were skipped by the
// non-finite loss guard so far.
func (s *Sim) NonFiniteSteps() int64 { return s.nonfinite.Load() }

// SelectionNormCap exposes Config.SelectionNormCap through the View so
// strategies can cap the Eq. 12 score of over-norm devices (see
// NormCapView).
func (s *Sim) SelectionNormCap() float64 { return s.cfg.SelectionNormCap }

// PhaseSeconds returns the cumulative wall-clock breakdown of StepOnce
// across its phases. Maintained unconditionally (see PhaseTimes).
func (s *Sim) PhaseSeconds() PhaseTimes { return s.phases }

// ObservedMobility returns the fraction of device-steps that crossed
// edges so far.
func (s *Sim) ObservedMobility() float64 {
	if s.moveTotal == 0 {
		return 0
	}
	return float64(s.moves) / float64(s.moveTotal)
}
