package eval

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Band is a series with a ±deviation envelope, the "shaded" presentation
// the paper uses for raw results behind smoothed averages.
type Band struct {
	Name string
	X    []int
	Mean []float64
	Std  []float64
}

// AggregateSeries combines repeated runs of the same experiment (one
// Series per seed, identical X grids) into a mean ± std band.
func AggregateSeries(runs []Series) Band {
	if len(runs) == 0 {
		panic("eval: AggregateSeries of no runs")
	}
	n := len(runs[0].X)
	for _, r := range runs {
		if len(r.X) != n {
			panic(fmt.Sprintf("eval: run %q has %d points, want %d", r.Name, len(r.X), n))
		}
		for i := range r.X {
			if r.X[i] != runs[0].X[i] {
				panic(fmt.Sprintf("eval: run %q x-grid mismatch at %d", r.Name, i))
			}
		}
	}
	b := Band{Name: runs[0].Name, X: append([]int(nil), runs[0].X...), Mean: make([]float64, n), Std: make([]float64, n)}
	col := make([]float64, len(runs))
	for i := 0; i < n; i++ {
		for j, r := range runs {
			col[j] = r.Y[i]
		}
		b.Mean[i] = Mean(col)
		b.Std[i] = Std(col)
	}
	return b
}

// MeanSeries returns the band's mean as a plain series for plotting.
func (b Band) MeanSeries() Series { return Series{Name: b.Name, X: b.X, Y: b.Mean} }

// TTAStats summarises time-to-accuracy over repeated runs.
type TTAStats struct {
	Strategy  string
	MeanSteps float64 // over runs that reached the target
	StdSteps  float64
	Reached   int // how many runs reached the target
	Runs      int
	MeanFinal float64
}

// AggregateTTA combines per-seed TTAResults (all for one strategy).
func AggregateTTA(results []TTAResult) TTAStats {
	if len(results) == 0 {
		panic("eval: AggregateTTA of no results")
	}
	st := TTAStats{Strategy: results[0].Strategy, Runs: len(results)}
	var steps, finals []float64
	for _, r := range results {
		if r.Strategy != st.Strategy {
			panic(fmt.Sprintf("eval: mixed strategies %q and %q", st.Strategy, r.Strategy))
		}
		finals = append(finals, r.FinalAcc)
		if r.Reached {
			st.Reached++
			steps = append(steps, float64(r.Steps))
		}
	}
	st.MeanSteps = Mean(steps)
	st.StdSteps = Std(steps)
	st.MeanFinal = Mean(finals)
	return st
}

// TTAStatsTable renders the multi-seed §6.2.1 comparison. The reference
// strategy's mean steps define the speedups.
func TTAStatsTable(stats []TTAStats, refName string, target float64) string {
	var ref TTAStats
	found := false
	for _, s := range stats {
		if s.Strategy == refName {
			ref, found = s, true
		}
	}
	rows := make([][]string, 0, len(stats))
	for _, s := range stats {
		steps := "—"
		if s.Reached > 0 {
			steps = fmt.Sprintf("%.1f ± %.1f", s.MeanSteps, s.StdSteps)
		}
		speed := "—"
		if s.Strategy == refName {
			speed = "1.00×"
		} else if found && ref.Reached > 0 && s.Reached > 0 && ref.MeanSteps > 0 {
			speed = fmt.Sprintf("%.2f×", s.MeanSteps/ref.MeanSteps)
		}
		rows = append(rows, []string{
			s.Strategy,
			steps,
			fmt.Sprintf("%d/%d", s.Reached, s.Runs),
			fmt.Sprintf("%.4f", s.MeanFinal),
			speed,
		})
	}
	return RenderTable(
		fmt.Sprintf("time to accuracy %.2f over %d seeds", target, stats[0].Runs),
		[]string{"strategy", "steps to target", "reached", "mean final acc", refName + " speedup"},
		rows,
	)
}
