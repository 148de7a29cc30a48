package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"middle/internal/hfl"
	"middle/internal/obs"
	"middle/internal/robust"
)

// measured is what one closed-loop run of a workload yields before it
// is turned into named metrics. Both runners fill the same fields.
type measured struct {
	setups    []time.Duration // every timed set-up of the run
	wall      time.Duration   // the timed window
	rounds    []time.Duration // one entry per completed round, evaluation excluded
	fixedWall time.Duration   // window start → round fixedRounds done
	// jobAcc is the accuracy of the global model after round fixedRounds:
	// a property of the program and the seed, not of how many rounds the
	// box fitted into the window.
	jobAcc float64
	// jobAccSum over jobEvals is the mean accuracy over the evaluations of
	// the fixed job: the area under the learning curve, which falls when
	// the model learns more slowly by any amount.
	jobAccSum float64
	jobEvals  int
	// tta and ttaRounds are where the accuracy curve crosses the target,
	// in time since the window opened and in rounds.
	tta       time.Duration
	ttaRounds float64
	reached   bool
	finite    bool
	curve     []evalPoint // every evaluation inside the window

	wireBytes  float64
	allocBytes uint64
	peakRSS    uint64

	// Device trainings the rounds selected and the ones that completed.
	selected, completed int
	// failures lists everything that makes the run incorrect.
	failures []string

	// Layer counts, filled on traced runs (and where they are free).
	moves        int
	evals        int
	evalTime     time.Duration
	phases       hfl.PhaseTimes
	peakResident int
	blends       int64
	net          netCounts
}

// evalPoint is one evaluation of the global model.
type evalPoint struct {
	Round    int     `json:"round"`
	Seconds  float64 `json:"seconds"` // since the window opened
	Accuracy float64 `json:"accuracy"`
}

// evaluated records an evaluation of the global model after round,
// finished at since-window-start. The first one at or above the target
// fixes tta and ttaRounds: the point where the straight line from the
// evaluation before it crosses the target. Evaluations are evalEvery
// rounds apart, so without interpolation a seed that passes the target
// just before an evaluation and one that passes just after it differ by
// a whole interval.
func (m *measured) evaluated(w *workload, round int, at, took time.Duration, acc float64) {
	m.evals++
	m.evalTime += took
	if round <= w.fixedRounds {
		m.jobAccSum += acc
		m.jobEvals++
	}
	if round == w.fixedRounds {
		m.jobAcc = acc
	}
	if !m.reached && acc >= w.target {
		m.reached, m.tta, m.ttaRounds = true, at, float64(round)
		if n := len(m.curve); n > 0 {
			prev := m.curve[n-1]
			f := (w.target - prev.Accuracy) / (acc - prev.Accuracy)
			m.tta = time.Duration((prev.Seconds + f*(at.Seconds()-prev.Seconds)) * float64(time.Second))
			m.ttaRounds = float64(prev.Round) + f*float64(round-prev.Round)
		}
	}
	m.curve = append(m.curve, evalPoint{round, at.Seconds(), acc})
}

// roundMS is the round durations in milliseconds.
func (m *measured) roundMS() []float64 {
	out := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = ms(r)
	}
	return out
}

func (m *measured) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// modelHash fingerprints the cloud model and every edge model.
func modelHash(s *hfl.Sim) uint64 {
	h := fnv.New64a()
	var b [8]byte
	write := func(v []float64) {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	write(s.CloudModel())
	for n := 0; n < s.NumEdges(); n++ {
		write(s.EdgeModel(n))
	}
	return h.Sum64()
}

// newSim builds the workload's inputs and engine. With a recorder the
// two interfaces the engine accepts are wrapped in span decorators.
func newSim(w *workload, seed int64, rec *recorder) (*hfl.Sim, *spanStrategy) {
	in := w.build(seed)
	if rec == nil {
		return hfl.New(in.simCfg, in.factory, in.part, in.test, in.mob, in.strategy), nil
	}
	strat := &spanStrategy{Strategy: in.strategy, rec: rec}
	return hfl.New(in.simCfg, in.factory, in.part, in.test, spanMobility{in.mob, rec}, strat), strat
}

// runSim drives hfl.Sim closed-loop: step t+1 starts when step t
// returns. It stops once both --seconds have passed and the workload's
// fixed job is done.
func runSim(w *workload, seed int64, seconds time.Duration, rec *recorder) *measured {
	m := &measured{}
	var sim *hfl.Sim
	var strat *spanStrategy
	for i := 0; i < w.setupRuns; i++ {
		sim, strat = nil, nil
		runtime.GC()
		start := time.Now()
		sim, strat = newSim(w, seed, rec)
		m.setups = append(m.setups, time.Since(start))
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prefixHash uint64
	seenEvals := 0
	start := time.Now()
	root := rec.open("run", 0, start)
	for {
		evalBefore := sim.PhaseSeconds().Eval
		t0 := time.Now()
		id := rec.open("hfl.step", root, t0)
		rec.setCurrent(id)
		step := sim.StepOnce()
		t1 := time.Now()
		rec.close(id, t1)
		evalTime := time.Duration((sim.PhaseSeconds().Eval - evalBefore) * float64(time.Second))
		m.rounds = append(m.rounds, t1.Sub(t0)-evalTime)

		if h := sim.History(); h.Len() > seenEvals {
			seenEvals = h.Len()
			m.evaluated(w, step, t1.Sub(start), evalTime, h.GlobalAcc[seenEvals-1])
		}
		m.selected += selectedTrainings(sim.Membership(), w.edges, w.k)
		if step == w.hashPrefix {
			prefixHash = modelHash(sim)
		}
		if step == w.fixedRounds {
			m.fixedWall = t1.Sub(start)
		}
		if step >= w.fixedRounds && t1.Sub(start) >= seconds {
			m.wall = t1.Sub(start)
			rec.close(root, t1)
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.peakRSS = obs.PeakRSSBytes()

	m.finite = robust.IsFinite(sim.CloudModel())
	de, ec := sim.CommCounts()
	m.wireBytes = float64(de+ec) * float64(len(sim.CloudModel())) * 8
	// A training that completed is one download plus one upload; the
	// selected ones were counted from each step's membership above.
	m.completed = int(de / 2)
	m.moves = int(math.Round(sim.ObservedMobility() * float64(sim.NumDevices()) * float64(sim.Step())))
	m.phases = sim.PhaseSeconds()
	m.peakResident = sim.PeakResidentModels()
	if strat != nil {
		m.blends = strat.blends.Load()
	}

	if w.hashPrefix > 0 && rec == nil {
		again, _ := newSim(w, seed, nil)
		for again.Step() < w.hashPrefix {
			again.StepOnce()
		}
		if got := modelHash(again); got != prefixHash {
			m.fail("same-seed prefix of %d rounds gave model hash %016x, first run %016x", w.hashPrefix, got, prefixHash)
		}
	}
	return m
}
