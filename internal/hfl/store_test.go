package hfl

import (
	"math"
	"testing"

	"middle/internal/simil"
	"middle/internal/tensor"
)

// middleLike is a MIDDLE-shaped strategy local to this package (hfl
// cannot import internal/core): Eq. 12 similarity selection through the
// SelectionInfo fast path and Eq. 9 on-device aggregation for movers.
// It exercises every store read the engine offers — selection scoring,
// mover blending, edge-model initialisation — which is what makes the
// lazy-vs-dense comparison below a complete behavioural pin.
type middleLike struct{}

func (middleLike) Name() string { return "middle-like" }

func (middleLike) Select(v View, edge int, candidates []int, k int, rng *tensor.RNG) []int {
	info := SelectionInfo(v)
	return TopKByScore(candidates, func(m int) float64 {
		u, _ := info(m)
		return -u
	}, k, rng)
}

func (middleLike) InitLocal(v View, device, edge int, moved bool) []float64 {
	edgeModel := v.EdgeModel(edge)
	if !moved {
		return edgeModel
	}
	agg, _ := simil.OnDeviceAggregate(edgeModel, v.LocalModel(device))
	return agg
}

// TestLazyStoreBitIdenticalToDense is the tentpole gate: a lazy-store
// run (no eviction cap) must be bitwise indistinguishable from the
// dense engine — same carried model for every device at every step,
// same cloud model, same history — under mobility and Eq. 9 blending.
func TestLazyStoreBitIdenticalToDense(t *testing.T) {
	mkSim := func(lazy bool) *Sim {
		f := newFixture(t, 0.5)
		cfg := smallConfig()
		cfg.Steps = 12 // crosses two cloud syncs plus a partial interval
		cfg.LazyStore = lazy
		return New(cfg, f.factory(), f.part, f.test, f.mob, middleLike{})
	}
	dense, lazy := mkSim(false), mkSim(true)

	for step := 0; step < 12; step++ {
		dense.StepOnce()
		lazy.StepOnce()
		if step == 0 {
			// Memory is cohort-scale, not population-scale: after one
			// step only the selected devices are materialized.
			if got, cohort := lazy.ResidentModels(), lazy.cfg.K*lazy.numEdges; got > cohort {
				t.Fatalf("step 1: %d resident models, want at most one cohort (%d)", got, cohort)
			}
		}
		for i := range dense.cloud {
			if math.Float64bits(dense.cloud[i]) != math.Float64bits(lazy.cloud[i]) {
				t.Fatalf("step %d: cloud models diverge at coordinate %d", step+1, i)
			}
		}
		for m := 0; m < dense.NumDevices(); m++ {
			dm, lm := dense.LocalModel(m), lazy.LocalModel(m)
			for i := range dm {
				if math.Float64bits(dm[i]) != math.Float64bits(lm[i]) {
					t.Fatalf("step %d: device %d carried models diverge at coordinate %d (resident=%v)",
						step+1, m, i, lazy.store.resident(m))
				}
			}
		}
	}
	hd, hl := dense.History(), lazy.History()
	if len(hd.GlobalAcc) == 0 || len(hd.GlobalAcc) != len(hl.GlobalAcc) {
		t.Fatalf("histories disagree in length: dense %d vs lazy %d", len(hd.GlobalAcc), len(hl.GlobalAcc))
	}
	for i := range hd.GlobalAcc {
		if hd.GlobalAcc[i] != hl.GlobalAcc[i] {
			t.Fatalf("eval %d: accuracy diverges dense=%v lazy=%v", i, hd.GlobalAcc[i], hl.GlobalAcc[i])
		}
		if hd.SelUtilMean[i] != hl.SelUtilMean[i] || hd.UpdNormMean[i] != hl.UpdNormMean[i] ||
			hd.BlendUtilMean[i] != hl.BlendUtilMean[i] {
			t.Fatalf("eval %d: telemetry columns diverge", i)
		}
	}
	if dense.PeakResidentModels() != dense.NumDevices() {
		t.Fatalf("dense store peak %d, want the full population %d",
			dense.PeakResidentModels(), dense.NumDevices())
	}
}

// TestLazyStoreMoverState pins mover-state correctness across edge
// transitions: a device that trained (is resident) keeps its private
// carried model when it crosses edges, a cloud sync demotes everyone to
// the shared cloud vector, and training re-materializes on selection.
func TestLazyStoreMoverState(t *testing.T) {
	f := newFixture(t, 0.9) // high mobility: movers every step
	cfg := smallConfig()
	cfg.LazyStore = true
	cfg.K = 2
	cfg.Steps = cfg.CloudInterval
	s := New(cfg, f.factory(), f.part, f.test, f.mob, middleLike{})

	trained := make(map[int]bool)
	for step := 1; step < cfg.CloudInterval; step++ { // stop before the sync
		s.StepOnce()
		for i := range s.jobs {
			trained[s.jobs[i].device] = true
		}
		for m := 0; m < s.NumDevices(); m++ {
			if trained[m] != s.store.resident(m) {
				t.Fatalf("step %d: device %d trained=%v but resident=%v",
					step, m, trained[m], s.store.resident(m))
			}
			lm := s.LocalModel(m)
			if trained[m] {
				// A trained device's carried model must survive moves:
				// it differs from the cloud and is not the shared vector.
				if &lm[0] == &s.cloud[0] {
					t.Fatalf("step %d: trained device %d aliases the cloud vector", step, m)
				}
				u, dn, known := s.DriftInfo(m)
				if known {
					t.Fatalf("step %d: resident device %d reported fast-path drift (%v, %v)", step, m, u, dn)
				}
			} else {
				if &lm[0] != &s.cloud[0] {
					t.Fatalf("step %d: untrained device %d does not alias the cloud vector", step, m)
				}
				u, dn, known := s.DriftInfo(m)
				if !known || u != 0 || dn != 0 {
					t.Fatalf("step %d: untrained device %d drift = (%v, %v, %v), want (0, 0, true)",
						step, m, u, dn, known)
				}
			}
		}
	}
	s.StepOnce() // the sync step
	if got := s.ResidentModels(); got != 0 {
		t.Fatalf("after cloud sync %d devices still resident, want 0", got)
	}
	for m := 0; m < s.NumDevices(); m++ {
		if lm := s.LocalModel(m); &lm[0] != &s.cloud[0] {
			t.Fatalf("after cloud sync device %d does not alias the cloud vector", m)
		}
	}
}

// TestResidentCapEviction checks the bounded-memory mode: the resident
// set never ends a step above the cap, evicted devices answer selection
// from their compact drift record, and the run still learns.
func TestResidentCapEviction(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.ResidentCap = cfg.K * 2 // 2 edges: exactly one cohort
	cfg.Steps = 12
	s := New(cfg, f.factory(), f.part, f.test, f.mob, middleLike{})
	sawEviction := false
	for step := 0; step < cfg.Steps; step++ {
		s.StepOnce()
		if got := s.ResidentModels(); got > cfg.ResidentCap {
			t.Fatalf("step %d: %d resident models exceed cap %d", step+1, got, cfg.ResidentCap)
		}
		if ls := s.store.(*lazyStore); len(ls.evicted) > 0 {
			sawEviction = true
			for m, rec := range ls.evicted {
				u, dn, known := s.DriftInfo(m)
				if !known || u != rec.util || dn != rec.deltaNorm {
					t.Fatalf("evicted device %d drift (%v, %v, %v) does not match its record %+v",
						m, u, dn, known, rec)
				}
			}
		}
	}
	if !sawEviction {
		t.Fatal("cap was never exercised: no device was evicted")
	}
	if acc := s.History().FinalAcc(); !(acc > 0) {
		t.Fatalf("capped run recorded no usable accuracy (got %v)", acc)
	}
}

// TestResidentCapValidation pins the nonsensical-combination rejection:
// a cap that cannot hold one full cohort (K × edges) must be refused.
func TestResidentCapValidation(t *testing.T) {
	f := newFixture(t, 0.5)
	cfg := smallConfig()
	cfg.ResidentCap = cfg.K*2 - 1 // one short of a 2-edge cohort
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted ResidentCap below K×edges")
		}
	}()
	New(cfg, f.factory(), f.part, f.test, f.mob, middleLike{})
}

// mapStore is the lazy store as it was before the private-state bitset:
// every question is answered by probing the maps. It is the reference
// TestLazyStoreMatchesMapReference holds the bitset against.
type mapStore struct {
	cloud   []float64
	cap     int
	res     map[int][]float64
	lastUse map[int]int
	evicted map[int]driftRec
}

func (s *mapStore) model(m int) []float64 {
	if v, ok := s.res[m]; ok {
		return v
	}
	return s.cloud
}

func (s *mapStore) materialize(m int) []float64 {
	if v, ok := s.res[m]; ok {
		return v
	}
	v := cloneVec(s.cloud)
	s.res[m] = v
	delete(s.evicted, m)
	return v
}

func (s *mapStore) drift(m int) (float64, float64, bool) {
	if _, ok := s.res[m]; ok {
		return 0, 0, false
	}
	if rec, ok := s.evicted[m]; ok {
		return rec.util, rec.deltaNorm, true
	}
	return 0, 0, true
}

func (s *mapStore) endStep() {
	for len(s.res) > s.cap {
		victim := -1
		for m := range s.res {
			if victim < 0 || s.lastUse[m] < s.lastUse[victim] ||
				(s.lastUse[m] == s.lastUse[victim] && m < victim) {
				victim = m
			}
		}
		u, dn := simil.SelectionUtilityNorm(s.cloud, s.res[victim])
		s.evicted[victim] = driftRec{util: u, deltaNorm: dn}
		delete(s.res, victim)
		delete(s.lastUse, victim)
	}
}

func (s *mapStore) cloudSynced() {
	clear(s.res)
	clear(s.lastUse)
	clear(s.evicted)
}

// TestLazyStoreMatchesMapReference drives the lazy store and the
// map-only reference through the same seeded sequence of engine
// operations — materialize and train, step end with eviction under a
// cap, cloud sync — and demands the same drift,
// model, residency and resident count for every device after every
// operation. The bitset may therefore never answer "exactly the cloud
// model" for a device that is resident or evicted, nor miss one that is
// neither.
func TestLazyStoreMatchesMapReference(t *testing.T) {
	const (
		devices = 130 // three bitset words, the last one partial
		dim     = 6
		cap     = 7
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := tensor.NewRNG(seed)
		cloud := make([]float64, dim)
		refCloud := make([]float64, dim)
		got := newLazyStore(cloud, devices, cap)
		ref := &mapStore{cloud: refCloud, cap: cap,
			res: map[int][]float64{}, lastUse: map[int]int{}, evicted: map[int]driftRec{}}

		step := 0
		for op := 0; op < 3000; op++ {
			m := rng.Intn(devices)
			var what string
			switch r := rng.Intn(100); {
			case r < 65:
				what = "materialize+train"
				a, b := got.materialize(m), ref.materialize(m)
				for i := range a {
					a[i] = rng.Float64() - 0.5
					b[i] = a[i]
				}
				got.noteTrained(m, step)
				ref.lastUse[m] = step
			case r < 95:
				what = "endStep"
				step++
				got.endStep(step)
				ref.endStep()
			default:
				what = "cloudSynced"
				for i := range cloud {
					cloud[i] = rng.Float64()
					refCloud[i] = cloud[i]
				}
				got.cloudSynced()
				ref.cloudSynced()
			}

			if got.residentCount() != len(ref.res) {
				t.Fatalf("seed %d op %d (%s): %d resident, reference has %d",
					seed, op, what, got.residentCount(), len(ref.res))
			}
			for d := 0; d < devices; d++ {
				_, wantRes := ref.res[d]
				if got.resident(d) != wantRes {
					t.Fatalf("seed %d op %d (%s): device %d resident=%v, reference %v",
						seed, op, what, d, got.resident(d), wantRes)
				}
				// A stale bit would still answer correctly, through the
				// maps; it would only lose the fast path. Pin it anyway.
				_, ev := got.evicted[d]
				if bit := got.private[d>>6]&(1<<(d&63)) != 0; bit != (wantRes || ev) {
					t.Fatalf("seed %d op %d (%s): device %d private bit=%v but resident=%v evicted=%v",
						seed, op, what, d, bit, wantRes, ev)
				}
				gu, gn, gk := got.drift(d)
				wu, wn, wk := ref.drift(d)
				if gk != wk || math.Float64bits(gu) != math.Float64bits(wu) ||
					math.Float64bits(gn) != math.Float64bits(wn) {
					t.Fatalf("seed %d op %d (%s): device %d drift (%v, %v, %v), reference (%v, %v, %v)",
						seed, op, what, d, gu, gn, gk, wu, wn, wk)
				}
				gv, wv := got.model(d), ref.model(d)
				if (&gv[0] == &cloud[0]) != (&wv[0] == &refCloud[0]) {
					t.Fatalf("seed %d op %d (%s): device %d aliases the cloud vector: %v, reference %v",
						seed, op, what, d, &gv[0] == &cloud[0], &wv[0] == &refCloud[0])
				}
				for i := range gv {
					if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
						t.Fatalf("seed %d op %d (%s): device %d model differs at coordinate %d",
							seed, op, what, d, i)
					}
				}
			}
		}
	}
}
