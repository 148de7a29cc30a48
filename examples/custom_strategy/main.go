// Custom strategy: the engine's Strategy interface has exactly two policy
// hooks — in-edge device selection and on-device model initialisation —
// so new policies drop in beside MIDDLE. This example builds
// "StalenessAware": it selects the devices that have trained least
// recently (maximum staleness, a fairness-flavoured policy) while keeping
// MIDDLE's Eq. 9 on-device aggregation, and races it against MIDDLE.
//
//	go run ./examples/custom_strategy
package main

import (
	"fmt"

	"middle"
)

// StalenessAware selects by training staleness and initialises moved
// devices with the similarity-weighted aggregation of paper Eq. 9. It
// keeps no state of its own: the engine calls Select for different edges
// concurrently, so a strategy that counted calls or cached scores would
// have to guard them (a sync.Mutex or sync/atomic).
type StalenessAware struct{}

// Name identifies the strategy in reports.
func (StalenessAware) Name() string { return "StalenessAware" }

// Select picks the k devices that have waited longest since their last
// training round (never-trained devices first).
func (StalenessAware) Select(v middle.View, edge int, candidates []int, k int, rng *middle.RNG) []int {
	now := v.Step()
	return middle.TopKByScore(candidates, func(m int) float64 {
		last := v.LastTrained(m)
		if last < 0 {
			return float64(now) + 1 // never trained: maximal staleness
		}
		return float64(now - last)
	}, k, rng)
}

// InitLocal reuses MIDDLE's on-device aggregation for moved devices. A
// device that stayed starts from the edge model itself: the engine only
// reads what InitLocal returns, so no copy is needed.
func (StalenessAware) InitLocal(v middle.View, device, edge int, moved bool) []float64 {
	edgeModel := v.EdgeModel(edge)
	if !moved {
		return edgeModel
	}
	agg, _ := middle.OnDeviceAggregate(edgeModel, v.LocalModel(device))
	return agg
}

func main() {
	const seed = 5
	setup := middle.NewTaskSetup(middle.TaskMNIST, middle.Fast, seed)
	part := setup.Partition(seed)

	var curves []middle.Series
	for _, strat := range []middle.Strategy{middle.MIDDLE(), StalenessAware{}} {
		mob := middle.NewMarkovMobility(setup.Edges, setup.Devices, 0.5, seed+11)
		sim := middle.NewSimulation(setup.Config(seed, 80), setup.Factory, part, setup.Test, mob, strat)
		h := sim.Run()
		curves = append(curves, middle.Series{Name: strat.Name(), X: h.Steps, Y: h.GlobalAcc})
		fmt.Printf("%-16s final accuracy %.4f\n", strat.Name(), h.FinalAcc())
	}
	fmt.Print(middle.LineChart("MIDDLE vs a custom strategy", curves, 70, 14))
}
