package main

import (
	"fmt"

	"middle"
	"middle/internal/experiments"
	"middle/internal/fednet"
	"middle/internal/obs"
)

// maxClusterDevices bounds the -exp scale deployment path: -mux spawns
// real loopback sockets and goroutines, so population-scale runs
// belong to the simulator path (lazy store), not the cluster path.
const maxClusterDevices = 4096

// scaleOpts is the -exp scale topology. Zero devices / edges / k / tc
// mean "task default" until runScale resolves them.
type scaleOpts struct {
	devices, edges, k, tc int
	residentCap           int
	mux                   int
	membership            bool
	liveMigration         bool
}

// deployment reports whether the options select the in-process fednet
// cluster (multiplexed devices) instead of the lazy-store simulator.
func (o scaleOpts) deployment() bool { return o.mux > 1 }

// validateScale rejects nonsensical flag combinations with an
// actionable message. It expects resolved (non-zero) topology values.
func validateScale(o scaleOpts) error {
	if o.devices < 1 || o.edges < 1 || o.k < 1 || o.tc < 1 {
		return fmt.Errorf("scale topology must be positive: devices=%d edges=%d k=%d tc=%d", o.devices, o.edges, o.k, o.tc)
	}
	if o.edges > o.devices {
		return fmt.Errorf("%d edges exceed %d devices", o.edges, o.devices)
	}
	if o.mux < 1 {
		return fmt.Errorf("-mux must be ≥ 1, got %d", o.mux)
	}
	if o.residentCap < 0 {
		return fmt.Errorf("-resident-cap must be ≥ 0, got %d", o.residentCap)
	}
	if cohort := o.k * o.edges; o.residentCap > 0 && o.residentCap < cohort {
		return fmt.Errorf("-resident-cap %d is smaller than the cohort k×edges = %d; a full cohort must stay materialized", o.residentCap, cohort)
	}
	if o.deployment() {
		if o.devices > maxClusterDevices {
			return fmt.Errorf("-mux runs a real in-process deployment; cap -devices at %d (got %d) or drop them to use the lazy-store simulator", maxClusterDevices, o.devices)
		}
		if o.residentCap > 0 {
			return fmt.Errorf("-resident-cap applies to the simulator path and cannot combine with -mux")
		}
	} else if o.membership {
		return fmt.Errorf("-membership enables the fednet lease detector and requires the deployment path (-mux)")
	} else if o.liveMigration {
		return fmt.Errorf("-live-migration makes the fednet deployment's movers arrive warm and requires the deployment path (-mux)")
	}
	return nil
}

// runScale is the -exp scale entry point: a population-scale run whose
// per-round cost is bounded by the cohort, not the fleet. Without -mux
// it runs the hfl simulator with the lazy device store; with it, the
// in-process fednet deployment (multiplexed device clients). Either way
// it reports the process's peak RSS so scripts can assert the memory
// ceiling; the simulator path adds the population-wide select phase's
// and the training phase's seconds.
func (o *options) runScale(task middle.TaskName) {
	sc := o.scale
	setup := o.Attach(experiments.NewScaleSetup(task, o.Seed, sc.devices, sc.edges, sc.k, sc.tc))
	sc.devices, sc.edges, sc.k, sc.tc = setup.Devices, setup.Edges, setup.K, setup.Tc
	if err := validateScale(sc); err != nil {
		o.fatalf("%v", err)
	}
	steps := o.steps
	if steps <= 0 {
		steps = 2 * sc.tc // two cloud syncs by default
	}
	strat, err := middle.StrategyByName(o.strategy)
	if err != nil {
		o.fatalf("%v", err)
	}
	part := setup.Partition(o.Seed)
	mob := setup.Mobility(o.p, o.Seed+11)
	if sc.deployment() {
		o.runScaleDeployment(setup, sc, fednet.ClusterConfig{
			Rounds: steps, K: sc.k, LocalSteps: setup.I, BatchSize: setup.BatchSize,
			CloudInterval: sc.tc, Strategy: strat, Partition: part,
			Factory: setup.Factory, Optimizer: setup.Optimizer, Mobility: mob,
			Seed: o.Seed, Mux: sc.mux,
			LiveMigration: sc.liveMigration,
			Membership:    fednet.MembershipConfig{Enabled: sc.membership},
			Obs:           o.M.Registry(), Trace: o.Trace,
		})
		return
	}

	fmt.Printf("=== Scale-out (%s): %d devices / %d edges, K=%d, Tc=%d, resident-cap=%d ===\n",
		task, sc.devices, sc.edges, sc.k, sc.tc, sc.residentCap)
	cfg := setup.Config(o.Seed, steps)
	o.overlay(&cfg)
	cfg.LazyStore = true
	cfg.ResidentCap = sc.residentCap
	sim := middle.NewSimulation(cfg, setup.Factory, part, setup.Test, mob, strat)
	h := sim.Run()
	fmt.Printf("final accuracy %.4f after %d steps (empirical mobility %.3f)\n",
		h.FinalAcc(), steps, h.EmpiricalMobility)
	ph := sim.PhaseSeconds()
	fmt.Printf("middlesim: peak_rss_mib=%d peak_resident_models=%d select_s=%.3f train_s=%.3f steps=%d\n",
		obs.PeakRSSBytes()>>20, h.PeakResidentModels, ph.Select, ph.Train, sim.Step())
}

// runScaleDeployment runs the fednet cluster variant of -exp scale:
// real loopback sockets and N-virtual-device multiplexers, at a
// necessarily smaller population.
func (o *options) runScaleDeployment(setup *experiments.TaskSetup, sc scaleOpts, cfg fednet.ClusterConfig) {
	fmt.Printf("=== Scale-out deployment (%s): %d devices / %d edges, mux=%d ===\n",
		setup.Task, sc.devices, sc.edges, sc.mux)
	c, err := fednet.StartCluster(cfg)
	if err != nil {
		o.fatalf("%v", err)
	}
	if err := c.Wait(); err != nil {
		o.fatalf("deployment: %v", err)
	}
	rounds := 0
	for _, r := range c.DeviceRounds() {
		rounds += r
	}
	stranded := c.Stranded()
	fmt.Printf("deployment complete: %d rounds, %d device trainings, %d failed moves, %d stranded devices\n",
		cfg.Rounds, rounds, c.MoveErrors(), len(stranded))
	fmt.Printf("final accuracy %.4f after %d rounds\n", setup.Accuracy(o.Seed, c.GlobalModel()), cfg.Rounds)
	if cfg.LiveMigration {
		mok, mfb, mrej := c.Migrations()
		fmt.Printf("migrations: %d ok, %d fallbacks, %d rejected\n", mok, mfb, mrej)
	}
	if cfg.Membership.Enabled {
		fmt.Printf("membership: %d edge failovers, %d devices re-homed, epoch %d\n",
			c.Failovers(), c.Rehomed(), c.MembershipEpoch())
	}
	fmt.Printf("middlesim: peak_rss_mib=%d peak_resident_models=0\n", obs.PeakRSSBytes()>>20)
}
