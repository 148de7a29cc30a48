package hfl

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middle/internal/mobility"
	"middle/internal/obs"
	"middle/internal/tensor"
)

// recordingMobility copies every membership the wrapped model returns
// and counts its Steps; inFlight is set while a Step runs, so a second
// Step meanwhile, or one still running when the caller looks, shows.
// delay lengthens each Step, to keep one running past a caller that
// does not wait for it.
type recordingMobility struct {
	mobility.Model
	delay    time.Duration
	rows     [][]int
	calls    atomic.Int64
	inFlight atomic.Bool
	overlaps atomic.Int64
}

func (r *recordingMobility) Step() []int {
	if !r.inFlight.CompareAndSwap(false, true) {
		r.overlaps.Add(1)
	}
	defer r.inFlight.Store(false)
	time.Sleep(r.delay)
	out := r.Model.Step()
	r.rows = append(r.rows, slices.Clone(out))
	r.calls.Add(1)
	return out
}

// candidateSpy records, per (step, edge), the candidates Select was
// handed, and selects the first k of them.
type candidateSpy struct {
	mu   sync.Mutex
	seen map[[2]int][]int
}

func (c *candidateSpy) Name() string { return "candidate-spy" }

func (c *candidateSpy) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	c.mu.Lock()
	c.seen[[2]int{v.Step(), edge}] = slices.Clone(candidates)
	c.mu.Unlock()
	return candidates[:min(k, len(candidates))]
}

func (c *candidateSpy) InitLocal(v View, device, edge int, moved bool) []float64 {
	return v.EdgeModel(edge)
}

// nudgeUpdater is a DeviceUpdater with no data: it moves the start
// vector by a device-dependent step, enough for aggregation to run.
type nudgeUpdater struct{}

func (nudgeUpdater) UpdateDevice(device int, start, out []float64, steps int, lr float64, rng *tensor.RNG) (float64, int) {
	for i := range out {
		out[i] = start[i] + lr*float64(device%7-3)
	}
	return 1, 0
}

// newSweepSim is a data-free Sim over mob with the given pool size.
func newSweepSim(mob mobility.Model, par, steps int, strat Strategy, reg *obs.Registry) *Sim {
	cfg := smallConfig()
	cfg.Parallelism, cfg.Steps, cfg.EvalEvery, cfg.Obs = par, steps, 0, reg
	sizes := make([]int, mob.NumDevices())
	for m := range sizes {
		sizes[m] = 1 + m%5
	}
	return NewWithUpdater(cfg, make([]float64, 4), sizes, func(int) DeviceUpdater { return nudgeUpdater{} }, mob, strat)
}

// TestSweepMatchesSerialAcrossParallelism pins the population sweep
// split over the worker pool. With 1,003 devices no pool size here
// divides the population into equal ranges; still, at every Parallelism
// every Select sees, per (step, edge), exactly the devices the recorded
// membership puts in that edge, in ascending order — the list one
// serial pass builds — and the move count, the flow matrix and its
// counters equal a recount from the recorded memberships.
func TestSweepMatchesSerialAcrossParallelism(t *testing.T) {
	const edges, devices, steps = 7, 1003, 8
	var reference map[[2]int][]int
	for _, par := range []int{1, 2, 3, 5} {
		mob := &recordingMobility{Model: mobility.NewMarkovRing(edges, devices, 0.5, 9)}
		spy := &candidateSpy{seen: map[[2]int][]int{}}
		reg := obs.NewRegistry()
		s := newSweepSim(mob, par, steps, spy, reg)
		s.Run()
		if len(mob.rows) != steps+1 {
			t.Fatalf("Parallelism %d: the model stepped %d times for %d steps", par, len(mob.rows), steps)
		}

		for step := 1; step <= steps; step++ {
			for n := 0; n < edges; n++ {
				var want []int
				for m, e := range mob.rows[step] {
					if e == n {
						want = append(want, m)
					}
				}
				got := spy.seen[[2]int{step, n}]
				if !slices.Equal(got, want) {
					t.Fatalf("Parallelism %d, step %d, edge %d: Select saw %d candidates %v…, the membership holds %d %v…",
						par, step, n, len(got), got[:min(5, len(got))], len(want), want[:min(5, len(want))])
				}
			}
		}
		if reference == nil {
			reference = spy.seen
		}
		for key, want := range reference {
			if got := spy.seen[key]; !slices.Equal(got, want) || len(spy.seen) != len(reference) {
				t.Fatalf("Parallelism %d, step %d, edge %d: Select saw other candidates than at Parallelism 1", par, key[0], key[1])
			}
		}

		moves, flow := 0, make([]int64, edges*edges)
		for step := 1; step <= steps; step++ {
			for m, e := range mob.rows[step] {
				if from := mob.rows[step-1][m]; from != e {
					moves++
					flow[from*edges+e]++
				}
			}
		}
		if s.moves != moves || moves == 0 {
			t.Fatalf("Parallelism %d: the Sim counted %d moves, the recorded memberships hold %d", par, s.moves, moves)
		}
		if !slices.Equal(s.tel.flowCounts, flow) {
			t.Fatalf("Parallelism %d: flow matrix %v, recount %v", par, s.tel.flowCounts, flow)
		}
		for i, want := range flow {
			from, to := strconv.Itoa(i/edges), strconv.Itoa(i%edges)
			if got := reg.Counter("hfl_mobility_flow_total", "from", from, "to", to).Value(); got != want {
				t.Fatalf("Parallelism %d: hfl_mobility_flow_total{from=%s,to=%s} = %d, recount %d", par, from, to, got, want)
			}
		}
	}
}

// TestRunStepsMobilityExactly pins the draw of M^{t+1} beside round t:
// Run with Steps S steps the model S+1 times (M^0 included), exactly as
// often as when every step drew its own membership, never two Steps at
// once, and no step returns while its draw is still running.
func TestRunStepsMobilityExactly(t *testing.T) {
	const edges, devices, steps = 3, 60, 6
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprint("Parallelism", par), func(t *testing.T) {
			mob := &recordingMobility{Model: mobility.NewMarkov(edges, devices, 0.5, 3), delay: 2 * time.Millisecond}
			s := newSweepSim(mob, par, steps, &candidateSpy{seen: map[[2]int][]int{}}, nil)
			for s.Step() < steps {
				step := s.StepOnce()
				if mob.inFlight.Load() {
					t.Fatalf("step %d returned while the model was still stepping", step)
				}
				if want := min(step+1, steps) + 1; mob.calls.Load() != int64(want) {
					t.Fatalf("after step %d the model stepped %d times, want %d", step, mob.calls.Load(), want)
				}
			}

			mob = &recordingMobility{Model: mobility.NewMarkov(edges, devices, 0.5, 3)}
			newSweepSim(mob, par, steps, &candidateSpy{seen: map[[2]int][]int{}}, nil).Run()
			if mob.calls.Load() != steps+1 || mob.overlaps.Load() != 0 {
				t.Fatalf("Run with Steps %d stepped the model %d times (%d overlapping), want %d and none",
					steps, mob.calls.Load(), mob.overlaps.Load(), steps+1)
			}
		})
	}
}
