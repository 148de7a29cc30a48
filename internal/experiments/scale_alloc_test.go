//go:build !race

package experiments

import (
	"runtime"
	"testing"

	"middle/internal/core"
	"middle/internal/data"
	"middle/internal/hfl"
	"middle/internal/mobility"
)

// The race detector's shadow bookkeeping allocates on its own, so byte
// budgets hold only without it.

// scaleBytesPerDevice bounds what building a population-scale run costs
// per device outside the cohort: Algorithm 1 reads only its membership
// and d_m, so the partition stores one period of windows, the ring model
// two memberships, and the simulator an Oort score (8 B), a last-training
// step and a training count (4 B each) per device. Measured at 45.6 B;
// the same state in 8-byte words plus a moved flag per device read
// 54.7 B, and storing a window header per device, a probability per
// device and a copy of d_m per device read 111 B.
const scaleBytesPerDevice = 48

// TestScaleSetupBytesPerDevice builds what sim_fleet builds — the scale
// partition, a Markov ring and the lazy-store simulator — at 200k
// devices and bounds the bytes allocated per device. The models it also
// allocates (one per edge and per pool worker) are ≈ 13 B a device here.
func TestScaleSetupBytesPerDevice(t *testing.T) {
	const devices = 200_000
	ts := NewScaleSetup(data.TaskMNIST, 1, devices, 100, 1, 10)
	cfg := ts.Config(1, 0)
	cfg.LazyStore = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	part := ts.Partition(1)
	mob := mobility.NewMarkovRing(ts.Edges, devices, 0.5, 1)
	sim := hfl.New(cfg, ts.Factory, part, ts.Test, mob, core.NewMiddle())
	runtime.ReadMemStats(&after)
	if sim.NumDevices() != devices {
		t.Fatalf("simulator holds %d devices, want %d", sim.NumDevices(), devices)
	}
	if got := float64(after.TotalAlloc-before.TotalAlloc) / devices; got > scaleBytesPerDevice {
		t.Fatalf("building a %d-device run allocated %.1f B per device, budget %d", devices, got, scaleBytesPerDevice)
	}
}
