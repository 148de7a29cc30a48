package mobility

import (
	"fmt"
	"slices"
	"testing"
)

// oracleStep is Markov.Step's loop as it read before the per-device
// invariants (edges > 1, ring) left it: the oracle for which draws a
// step takes, in which order, and where each device lands.
func oracleStep(mk *Markov) []int {
	next := mk.spare
	for m, e := range mk.current {
		if mk.edges > 1 && mk.rng.Float64() < mk.p {
			if mk.ring {
				if mk.rng.Float64() < 0.5 {
					e += mk.edges - 1 // −1 mod edges
				} else {
					e++
				}
				if e >= mk.edges {
					e -= mk.edges
				}
			} else {
				to := mk.rng.Intn(mk.edges - 1)
				if to >= e {
					to++
				}
				e = to
			}
		}
		next[m] = e
	}
	mk.current, mk.spare = next, mk.current
	return next
}

// TestMarkovStepMatchesOracle: for 50 steps at P 0.3, 0.5 and 1, on the
// uniform and the ring variant (and on one edge, where nothing is
// drawn), the specialised loops put every device where the oracle puts
// it and leave the stream where the oracle leaves it.
func TestMarkovStepMatchesOracle(t *testing.T) {
	build := map[string]func(edges, devices int, p float64, seed int64) *Markov{
		"uniform": NewMarkov, "ring": NewMarkovRing,
	}
	for name, newModel := range build {
		for _, edges := range []int{1, 2, 7} {
			for _, p := range []float64{0.3, 0.5, 1} {
				label := fmt.Sprintf("%s/edges=%d/P=%v", name, edges, p)
				got, want := newModel(edges, 1003, p, 11), newModel(edges, 1003, p, 11)
				for step := 1; step <= 50; step++ {
					if g, w := got.Step(), oracleStep(want); !slices.Equal(g, w) {
						t.Fatalf("%s: step %d's membership differs from the oracle's", label, step)
					}
				}
				if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
					t.Fatalf("%s: after 50 steps the streams differ (%d vs %d)", label, g, w)
				}
			}
		}
	}
}
