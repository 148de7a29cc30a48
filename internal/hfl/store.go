package hfl

import (
	"sort"

	"middle/internal/simil"
)

// deviceStore abstracts how the engine holds per-device carried models.
// The dense store is the original engine: one materialized vector per
// device for the lifetime of the run. The lazy store exploits the
// Algorithm 1 invariant that every cloud sync overwrites every carried
// model with the global model: between syncs, only devices that trained
// (the selected cohorts) differ from the cloud vector, so everyone else
// can be *represented* by the shared cloud model and per-round memory
// scales with the cohort instead of the population.
type deviceStore interface {
	// model returns device m's current carried model. The returned
	// slice may be the shared cloud vector; callers must not write
	// through it.
	model(m int) []float64
	// materialize returns a private, writable vector for device m,
	// seeded with its current model. Training jobs write into it.
	materialize(m int) []float64
	// resident reports whether device m holds a private vector (it
	// trained since the last cloud sync and was not evicted).
	resident(m int) bool
	// drift returns the Eq. 12 selection utility U(w_c, Δw_m) and
	// ‖Δw_m‖ when they are knowable without a full-vector sweep:
	// exact zeros for devices bitwise-equal to the cloud model, the
	// recorded compact drift for evicted devices. known=false means
	// the caller must compute them from the vectors.
	drift(m int) (utility, deltaNorm float64, known bool)
	// noteTrained marks device m as trained at the given step
	// (eviction recency).
	noteTrained(m, step int)
	// endStep runs end-of-step maintenance (eviction under a cap).
	endStep(step int)
	// cloudSynced notes that the cloud vector was just pushed to every
	// device (Algorithm 1 lines 13–15).
	cloudSynced()
	// residentCount returns how many full vectors the store holds.
	residentCount() int
	// peakResident returns the high-water mark of residentCount.
	peakResident() int
}

// denseStore is the original engine layout: every device owns a
// materialized vector from construction to the end of the run.
type denseStore struct {
	cloud  []float64
	locals [][]float64
}

func newDenseStore(cloud []float64, numDevices int) *denseStore {
	s := &denseStore{cloud: cloud, locals: make([][]float64, numDevices)}
	for m := range s.locals {
		s.locals[m] = cloneVec(cloud)
	}
	return s
}

func (s *denseStore) model(m int) []float64              { return s.locals[m] }
func (s *denseStore) materialize(m int) []float64        { return s.locals[m] }
func (s *denseStore) resident(int) bool                  { return true }
func (s *denseStore) drift(int) (float64, float64, bool) { return 0, 0, false }
func (s *denseStore) noteTrained(int, int)               {}
func (s *denseStore) endStep(int)                        {}
func (s *denseStore) residentCount() int                 { return len(s.locals) }
func (s *denseStore) peakResident() int                  { return len(s.locals) }

func (s *denseStore) cloudSynced() {
	for m := range s.locals {
		copy(s.locals[m], s.cloud)
	}
}

// driftRec is the compact record left behind when a device's vector is
// evicted under ResidentCap: the Eq. 12 quantities frozen at eviction
// time, so selection can still rank the device without its vector.
type driftRec struct {
	util      float64
	deltaNorm float64
}

// lazyStore materializes vectors only for devices that train between
// cloud syncs. Non-resident devices alias the shared cloud vector —
// bitwise what the dense store would hold for them — so with cap == 0
// (no eviction) lazy runs are bit-identical to dense runs. With cap > 0
// the least-recently-trained residents are evicted at step end, each
// leaving a driftRec behind; evicted movers re-blend against the cloud
// model instead of their carried one, the documented approximation that
// bounds memory at population scale.
type lazyStore struct {
	cloud   []float64
	cap     int // 0 = no eviction
	res     map[int][]float64
	lastUse map[int]int
	evicted map[int]driftRec
	// private has bit m set exactly when device m is a key of res or
	// evicted. Selection asks drift about every candidate every step and
	// all but the recent cohorts carry the cloud vector itself; the bit
	// answers for them without probing either map.
	private []uint64
	free    [][]float64 // recycled vectors
	peak    int
}

func newLazyStore(cloud []float64, numDevices, cap int) *lazyStore {
	return &lazyStore{
		cloud:   cloud,
		cap:     cap,
		res:     make(map[int][]float64),
		lastUse: make(map[int]int),
		evicted: make(map[int]driftRec),
		private: make([]uint64, (numDevices+63)/64),
	}
}

func (s *lazyStore) model(m int) []float64 {
	if v, ok := s.res[m]; ok {
		return v
	}
	return s.cloud
}

func (s *lazyStore) materialize(m int) []float64 {
	if v, ok := s.res[m]; ok {
		return v
	}
	var v []float64
	if n := len(s.free); n > 0 {
		v = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		v = make([]float64, len(s.cloud))
	}
	copy(v, s.cloud)
	s.res[m] = v
	delete(s.evicted, m)
	s.private[m>>6] |= 1 << (m & 63)
	if len(s.res) > s.peak {
		s.peak = len(s.res)
	}
	return v
}

func (s *lazyStore) resident(m int) bool {
	_, ok := s.res[m]
	return ok
}

func (s *lazyStore) drift(m int) (float64, float64, bool) {
	if s.private[m>>6]&(1<<(m&63)) == 0 {
		// Never trained (or synced since): the carried model IS the cloud
		// model, so Δw_m = 0 exactly — the same bits the full sweep yields.
		return 0, 0, true
	}
	if _, ok := s.res[m]; ok {
		return 0, 0, false // has a real vector: compute from it
	}
	rec := s.evicted[m]
	return rec.util, rec.deltaNorm, true
}

func (s *lazyStore) noteTrained(m, step int) { s.lastUse[m] = step }

// endStep evicts the least-recently-trained residents down to the cap,
// recording each one's compact drift before recycling its vector.
func (s *lazyStore) endStep(step int) {
	if s.cap <= 0 || len(s.res) <= s.cap {
		return
	}
	type cand struct{ m, last int }
	cands := make([]cand, 0, len(s.res))
	for m := range s.res {
		cands = append(cands, cand{m, s.lastUse[m]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].last != cands[j].last {
			return cands[i].last < cands[j].last
		}
		return cands[i].m < cands[j].m // deterministic tie-break
	})
	for _, c := range cands[:len(s.res)-s.cap] {
		v := s.res[c.m]
		u, dn := simil.SelectionUtilityNorm(s.cloud, v)
		s.evicted[c.m] = driftRec{util: u, deltaNorm: dn}
		s.free = append(s.free, v)
		delete(s.res, c.m)
		delete(s.lastUse, c.m)
	}
}

func (s *lazyStore) cloudSynced() {
	for m, v := range s.res {
		s.free = append(s.free, v)
		delete(s.res, m)
		delete(s.lastUse, m)
	}
	// After a sync every device equals the cloud model: all drift is
	// exactly zero again.
	clear(s.evicted)
	clear(s.private)
}

func (s *lazyStore) residentCount() int { return len(s.res) }
func (s *lazyStore) peakResident() int  { return s.peak }
