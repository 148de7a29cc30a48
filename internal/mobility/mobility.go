// Package mobility generates device-to-edge membership sequences — the
// role the ONE simulator plays in the paper's evaluation (§6.1.1). The
// paper needs only per-time-step edge membership whose average cross-edge
// move probability matches the global mobility P (it is explicitly
// orthogonal to specific mobility models), so this package provides a
// Markov cross-edge model parameterised directly by P, a planar
// random-waypoint model with nearest-edge association (paper Eq. 3), and
// a trace format for recording and replaying either.
package mobility

import "fmt"

// Model produces the edge membership of every device over time. Step
// advances the simulation clock by one time step and returns the current
// membership; Reset restarts the model's random stream so the same
// sequence replays. Implementations are not safe for concurrent use.
type Model interface {
	NumEdges() int
	NumDevices() int
	// Step advances one time step and returns edge ids per device. The
	// returned slice is the model's own storage: read-only, and valid
	// until the second following Step, so a caller can hold the previous
	// membership beside the current one; whoever keeps one longer copies.
	Step() []int
	// Reset restarts the model at time zero with its original randomness.
	// It may refill the model's own storage, so it invalidates every
	// slice Step returned before it.
	Reset()
}

// validate panics on impossible topologies; shared by model constructors.
func validate(edges, devices int) {
	if edges < 1 {
		panic(fmt.Sprintf("mobility: need at least 1 edge, got %d", edges))
	}
	if devices < 1 {
		panic(fmt.Sprintf("mobility: need at least 1 device, got %d", devices))
	}
}

// roundRobin fills out with the balanced membership m → m mod E.
func roundRobin(out []int, edges int) []int {
	for m := range out {
		out[m] = m % edges
	}
	return out
}

// EmpiricalMobility measures the average per-step cross-edge move
// probability of a membership sequence — the observable the paper's
// global mobility P describes.
func EmpiricalMobility(memberships [][]int) float64 {
	if len(memberships) < 2 {
		return 0
	}
	moves, total := 0, 0
	for t := 1; t < len(memberships); t++ {
		prev, cur := memberships[t-1], memberships[t]
		for m := range cur {
			if cur[m] != prev[m] {
				moves++
			}
			total++
		}
	}
	return float64(moves) / float64(total)
}
