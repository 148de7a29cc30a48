// Mobility sweep: how does the global mobility P affect the final model?
// Reproduces the Figure 7 shape on the fast task and prints the §5
// theoretical reference (the Theorem 1 bound decreases monotonically in
// P) next to the measured results.
//
//	go run ./examples/mobility_sweep
package main

import (
	"fmt"

	"middle"
)

// rounds is each run's length; the test shortens it.
var rounds = 100

func main() {
	const seed = 3
	ps := []float64{0.1, 0.3, 0.5}

	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, seed)
	strategies := []middle.Strategy{middle.MIDDLE(), middle.OORT(), middle.FedMes()}
	res := middle.RunFig7(setup, strategies, ps, seed, rounds)

	groups := make([]string, len(ps))
	for i, p := range ps {
		groups[i] = fmt.Sprintf("P=%.1f", p)
	}
	fmt.Print(middle.BarChart("final global accuracy vs mobility", res.Strategies, groups, res.FinalAcc, 32))

	// The convex-case analysis: Remark 1 says the bound shrinks as P
	// grows; the empirical divergence term shrinks with aggregation on.
	fmt.Println("\nTheorem 1 bound (α = 0.5) as a function of P:")
	for _, p := range ps {
		b := middle.TheoremBound(middle.BoundParams{
			Beta: 1, Mu: 1, Gamma: 10, T: 100,
			B: 1, InitDist2: 4, I: 10, G2: 4, Alpha: 0.5, P: p,
		})
		fmt.Printf("  P=%.1f  bound=%.3f\n", p, b)
	}
}
