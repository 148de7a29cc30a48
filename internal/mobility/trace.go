package mobility

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace is a materialised membership sequence: Memberships[t][m] is the
// edge of device m at time step t. Traces decouple trace generation
// (cmd/tracegen) from simulation and make experiments exactly repeatable
// across processes.
type Trace struct {
	Edges       int
	Memberships [][]int
}

// Record runs a model for the given number of time steps and captures the
// resulting trace.
func Record(m Model, steps int) *Trace {
	tr := &Trace{Edges: m.NumEdges(), Memberships: make([][]int, steps)}
	for t := 0; t < steps; t++ {
		tr.Memberships[t] = append([]int(nil), m.Step()...)
	}
	return tr
}

// Steps returns the trace length.
func (tr *Trace) Steps() int { return len(tr.Memberships) }

// NumDevices returns the device count (0 for an empty trace).
func (tr *Trace) NumDevices() int {
	if len(tr.Memberships) == 0 {
		return 0
	}
	return len(tr.Memberships[0])
}

// EmpiricalMobility reports the average cross-edge move rate observed.
func (tr *Trace) EmpiricalMobility() float64 { return EmpiricalMobility(tr.Memberships) }

// Replay returns a Model that plays the trace back step by step, looping
// if stepped past the end.
func (tr *Trace) Replay() Model { return &replay{tr: tr} }

type replay struct {
	tr *Trace
	t  int
}

func (r *replay) NumEdges() int   { return r.tr.Edges }
func (r *replay) NumDevices() int { return r.tr.NumDevices() }
func (r *replay) Reset()          { r.t = 0 }

func (r *replay) Step() []int {
	if r.tr.Steps() == 0 {
		return nil
	}
	row := r.tr.Memberships[r.t%r.tr.Steps()]
	r.t++
	return row
}

// Write serialises the trace in a simple line-oriented text format:
//
//	middle-trace v1 <edges> <devices> <steps>
//	e e e ...   (one line per time step, one edge id per device)
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "middle-trace v1 %d %d %d\n", tr.Edges, tr.NumDevices(), tr.Steps()); err != nil {
		return err
	}
	for _, row := range tr.Memberships {
		parts := make([]string, len(row))
		for i, e := range row {
			parts[i] = strconv.Itoa(e)
		}
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace produced by Write, validating header
// consistency and edge-id ranges.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("mobility: empty trace input")
	}
	var edges, devices, steps int
	var magic, version string
	if _, err := fmt.Sscan(sc.Text(), &magic, &version, &edges, &devices, &steps); err != nil {
		return nil, fmt.Errorf("mobility: bad trace header %q: %w", sc.Text(), err)
	}
	if magic != "middle-trace" || version != "v1" {
		return nil, fmt.Errorf("mobility: unrecognised trace header %q", sc.Text())
	}
	if edges < 1 || devices < 0 || steps < 0 || (steps > 0 && devices < 1) {
		return nil, fmt.Errorf("mobility: implausible trace header %q", sc.Text())
	}
	// Memberships grows by the rows actually read: the header's step count
	// is a claim, and no allocation is sized from it.
	tr := &Trace{Edges: edges}
	for t := 0; t < steps; t++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("mobility: trace truncated at step %d of %d", t, steps)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != devices {
			return nil, fmt.Errorf("mobility: step %d has %d entries, want %d", t, len(fields), devices)
		}
		row := make([]int, devices)
		for m, f := range fields {
			e, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("mobility: step %d device %d: %w", t, m, err)
			}
			if e < 0 || e >= edges {
				return nil, fmt.Errorf("mobility: step %d device %d edge %d out of range [0,%d)", t, m, e, edges)
			}
			row[m] = e
		}
		tr.Memberships = append(tr.Memberships, row)
	}
	return tr, sc.Err()
}

// OccupancyShares returns each edge's share of device-steps across the
// trace — a uniformity diagnostic for mobility models.
func (tr *Trace) OccupancyShares() []float64 {
	counts := make([]float64, tr.Edges)
	total := 0.0
	for _, row := range tr.Memberships {
		for _, e := range row {
			counts[e]++
			total++
		}
	}
	if total > 0 {
		for e := range counts {
			counts[e] /= total
		}
	}
	return counts
}

// MeanSojourn returns the average number of consecutive steps a device
// stays on one edge before moving (the reciprocal of mobility for a
// memoryless model). Returns 0 for traces shorter than 2 steps.
func (tr *Trace) MeanSojourn() float64 {
	if tr.Steps() < 2 {
		return 0
	}
	totalStay, stays := 0, 0
	for m := 0; m < tr.NumDevices(); m++ {
		run := 1
		for t := 1; t < tr.Steps(); t++ {
			if tr.Memberships[t][m] == tr.Memberships[t-1][m] {
				run++
			} else {
				totalStay += run
				stays++
				run = 1
			}
		}
		totalStay += run
		stays++
	}
	return float64(totalStay) / float64(stays)
}
