package mobility

import (
	"fmt"

	"middle/internal/tensor"
)

// Markov is the direct realisation of the paper's mobility abstraction:
// at every time step device m moves with probability P_m and stays put
// otherwise. The global mobility P is the average of P_m (paper §3.2);
// like the paper's experiments, every device here has P_m = P.
// The destination distribution is configurable: uniform over all other
// edges (the memoryless default), or restricted to ring-adjacent edges
// (NewMarkovRing), which preserves the spatial locality real traces —
// e.g. from the ONE simulator — exhibit: a device drifts between
// neighbouring cells rather than teleporting across the map.
type Markov struct {
	edges   int
	p       float64 // every device's move probability P_m = P
	ring    bool    // adjacent-edge moves only
	seed    int64
	rng     *tensor.RNG
	current []int // the membership Step last returned
	spare   []int // the one before it, which the next Step overwrites
}

// NewMarkov builds a Markov mobility model in which every device shares
// the same move probability p (the paper's experiments set P_m = P).
func NewMarkov(edges, devices int, p float64, seed int64) *Markov {
	validate(edges, devices)
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("mobility: probability %v outside [0,1]", p))
	}
	mk := &Markov{edges: edges, p: p, seed: seed, current: make([]int, devices), spare: make([]int, devices)}
	mk.Reset()
	return mk
}

// NumEdges returns the number of edges.
func (mk *Markov) NumEdges() int { return mk.edges }

// NumDevices returns the number of devices.
func (mk *Markov) NumDevices() int { return len(mk.current) }

// NewMarkovRing builds a locality-preserving Markov model: a moving
// device steps to one of its two ring-adjacent edges (edge e ± 1 mod E),
// every device sharing move probability p. Global mobility still equals
// p, but edge membership retains spatial correlation over time.
func NewMarkovRing(edges, devices int, p float64, seed int64) *Markov {
	mk := NewMarkov(edges, devices, p, seed)
	mk.ring = true
	return mk
}

// Step advances one time step: each device moves with probability P,
// either to a uniform other edge or (ring mode) to an adjacent edge.
// With one edge nobody moves and nothing is drawn.
func (mk *Markov) Step() []int {
	cur, next := mk.current, mk.spare
	switch {
	case mk.edges == 1:
		copy(next, cur)
	case mk.ring:
		mk.stepRing(cur, next)
	default:
		mk.stepUniform(cur, next)
	}
	mk.current, mk.spare = next, cur
	return next
}

// stepRing is Step's ring-mode loop: one draw per device, and a second
// (which way round) for each one that moves.
func (mk *Markov) stepRing(cur, next []int) {
	rng, p, edges := mk.rng, mk.p, mk.edges
	next = next[:len(cur)]
	for m, e := range cur {
		if rng.Float64() < p {
			if rng.Float64() < 0.5 {
				e += edges - 1 // −1 mod edges
			} else {
				e++
			}
			if e >= edges {
				e -= edges
			}
		}
		next[m] = e
	}
}

// stepUniform is Step's default loop: one draw per device, and a
// second (the destination among the other edges) for each one that
// moves.
func (mk *Markov) stepUniform(cur, next []int) {
	rng, p, others := mk.rng, mk.p, mk.edges-1
	next = next[:len(cur)]
	for m, e := range cur {
		if rng.Float64() < p {
			to := rng.Intn(others)
			if to >= e {
				to++
			}
			e = to
		}
		next[m] = e
	}
}

// Reset reseeds the stream and refills the membership it owns.
func (mk *Markov) Reset() {
	mk.rng = tensor.Split(mk.seed, 0x30B1)
	roundRobin(mk.current, mk.edges)
}

// Static is the no-mobility special case (P = 0): membership never
// changes. It is the classical HFL setting baselines assume.
type Static struct {
	edges      int
	membership []int
}

// NewStatic pins each device to its round-robin edge forever.
func NewStatic(edges, devices int) *Static {
	validate(edges, devices)
	return &Static{edges: edges, membership: roundRobin(make([]int, devices), edges)}
}

// NumEdges returns the number of edges.
func (s *Static) NumEdges() int { return s.edges }

// NumDevices returns the number of devices.
func (s *Static) NumDevices() int { return len(s.membership) }

// Step returns the fixed membership.
func (s *Static) Step() []int { return s.membership }

// Reset is a no-op for a static model.
func (s *Static) Reset() {}
