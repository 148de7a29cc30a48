package experiments

import (
	"fmt"

	"middle/internal/data"
	"middle/internal/eval"
	"middle/internal/hfl"
)

// Fig8Result compares MIDDLE against OORT across edge-cloud
// communication intervals T_c (paper Figure 8): one accuracy series per
// (strategy, T_c) pair.
type Fig8Result struct {
	Task   data.TaskName
	Tcs    []int
	Curves []eval.Series // named "<strategy> Tc=<v>"
}

// RunFig8 sweeps T_c for the given strategies (the paper uses MIDDLE and
// OORT) at fixed mobility p.
func RunFig8(setup *TaskSetup, strategies []hfl.Strategy, tcs []int, p float64, seed int64, steps int) Fig8Result {
	part := setup.Partition(seed)
	res := Fig8Result{Task: setup.Task, Tcs: tcs}
	for _, strat := range strategies {
		for _, tc := range tcs {
			cfg := setup.Config(seed, steps)
			cfg.CloudInterval = tc
			mob := setup.Mobility(p, seed+11)
			sim := hfl.New(cfg, setup.Factory, part, setup.Test, mob, strat)
			h := sim.Run()
			res.Curves = append(res.Curves, eval.Series{
				Name: fmt.Sprintf("%s Tc=%d", strat.Name(), tc),
				X:    h.Steps,
				Y:    h.GlobalAcc,
			})
		}
	}
	return res
}
