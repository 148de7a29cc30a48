package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runDetail is everything one run of one workload reports. The driver
// reads only the contract line derived from it; the all-workloads mode
// reads the whole record through a file.
type runDetail struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Failures says why Correct is false, one line each.
	Failures []string `json:"failures,omitempty"`
	// Rounds is the operation count; the trainings are reported beside
	// it because a round that loses devices still completes.
	Rounds             int                `json:"rounds"`
	TrainingsSelected  int                `json:"trainings_selected"`
	TrainingsCompleted int                `json:"trainings_completed"`
	Metrics            map[string]float64 `json:"metrics"`
	// Samples is how many measurements stand behind a metric that is a
	// median or a percentile of several.
	Samples   map[string]int `json:"samples,omitempty"`
	Curve     []evalPoint    `json:"accuracy_curve,omitempty"`
	TraceFile string         `json:"trace_file,omitempty"`
}

// contractLine is the object the driver expects as the last line of
// standard output.
func (d *runDetail) contractLine() ([]byte, error) {
	catalogue := endToEnd
	if d.Traced {
		catalogue = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(catalogue))
	for _, m := range catalogue {
		v, ok := d.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": d.Correct, "attempted": d.Attempted, "failed": d.Failed, "metrics": metrics,
	})
}

func (d *runDetail) print(w io.Writer) {
	catalogue := reported(d.Traced)
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  rounds %d  trainings %d/%d completed\n",
		d.Workload, d.Seed, d.Traced, d.Rounds, d.TrainingsCompleted, d.TrainingsSelected)
	for _, m := range catalogue {
		line := fmt.Sprintf("  %-34s %14.6g %-8s", m.Name, d.Metrics[m.Name], m.Unit)
		if n := d.Samples[m.Name]; n > 0 {
			line += fmt.Sprintf(" (%d samples)", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if len(d.Curve) > 0 {
		fmt.Fprint(w, "  accuracy by round:")
		for _, p := range d.Curve {
			fmt.Fprintf(w, " %d:%.3f", p.Round, p.Accuracy)
		}
		fmt.Fprintln(w)
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// e2eDetail turns an untraced run into the end-to-end metrics and the
// correctness verdict.
func e2eDetail(w *workload, seed int64, seconds time.Duration, m *measured) *runDetail {
	d := newDetail(w, seed, seconds, m)
	rounds := float64(max(len(m.rounds), 1))
	var setups []float64
	for _, s := range m.setups {
		setups = append(setups, s.Seconds())
	}
	roundMS := m.roundMS()
	tta, ttaRounds := m.tta, m.ttaRounds
	if !m.reached {
		// Censored: the target was not met inside the window.
		tta, ttaRounds = m.wall, rounds
	}
	d.Metrics = map[string]float64{
		"setup_s":            median(setups),
		"wall_s":             m.fixedWall.Seconds(),
		"rounds_per_s":       ratio(rounds, m.wall.Seconds()),
		"round_ms_p50":       percentile(roundMS, 50),
		"tta_s":              tta.Seconds(),
		"rounds_to_target":   ttaRounds,
		"mean_acc":           ratio(m.jobAccSum, float64(m.jobEvals)),
		"final_acc":          m.jobAcc,
		"wire_mb_per_round":  m.wireBytes / rounds / 1e6,
		"alloc_mb_per_round": float64(m.allocBytes) / rounds / 1e6,
		"peak_rss_mb":        float64(m.peakRSS) / 1e6,
	}
	d.Samples = map[string]int{
		"setup_s": len(setups), "round_ms_p50": len(roundMS), "rounds_per_s": len(roundMS), "wall_s": w.fixedRounds,
		"rounds_to_target": m.evals, "tta_s": m.evals, "mean_acc": m.jobEvals,
	}
	if !m.reached {
		d.Failures = append(d.Failures, fmt.Sprintf("target accuracy %.2f not reached in %d rounds", w.target, len(m.rounds)))
	}
	if m.jobAcc < w.accFloor {
		d.Failures = append(d.Failures, fmt.Sprintf("accuracy %.4f after round %d is below the floor %.2f", m.jobAcc, w.fixedRounds, w.accFloor))
	}
	d.finalize()
	return d
}

// newDetail fills what traced and untraced runs share. An operation is
// a round: every round the window started must complete, and any
// whole-run failure (a component error, a failed move, a stranded
// device, a non-finite model) fails the run's operations with it.
func newDetail(w *workload, seed int64, seconds time.Duration, m *measured) *runDetail {
	d := &runDetail{
		Workload: w.name, Seed: seed, Seconds: seconds.Seconds(),
		Rounds: len(m.rounds), Attempted: max(len(m.rounds), 1),
		TrainingsSelected: m.selected, TrainingsCompleted: m.completed,
		Failures: append([]string(nil), m.failures...), Curve: m.curve,
	}
	if !m.finite {
		d.Failures = append(d.Failures, "global model is not finite")
	}
	return d
}

// finalize derives the verdict once every failure is listed.
func (d *runDetail) finalize() {
	d.Failed = operationsFailed(d.Attempted, len(d.Failures))
	d.Correct = len(d.Failures) == 0
}

// operationsFailed counts failed operations: none on a clean run, and
// every attempted round when the run as a whole failed, since no round
// of a run that ended in an error can be trusted.
func operationsFailed(attempted, wholeRunFailures int) int {
	if wholeRunFailures > 0 {
		return attempted
	}
	return 0
}

// environment is recorded with every report so two of them can be told
// apart when they disagree.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// Not every checkout is a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// summary is one metric on one workload across the runs of a report.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   int       `json:"runs"`    // how many runs the median is of
	Sample int       `json:"samples"` // measurements behind each run's value (0: one)
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Name     string              `json:"name"`
	Why      string              `json:"why"`
	Correct  bool                `json:"correct"`
	Failures []string            `json:"failures,omitempty"`
	Metrics  map[string]*summary `json:"metrics"`
}

// report is the output of the all-workloads mode and the input of
// -compare.
type report struct {
	Env       environment       `json:"environment"`
	Seed      int64             `json:"seed"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

func (wr *workloadReport) add(d *runDetail) {
	for _, m := range reported(d.Traced) {
		s := wr.Metrics[m.Name]
		if s == nil {
			s = &summary{Unit: m.Unit}
			wr.Metrics[m.Name] = s
		}
		s.Values = append(s.Values, d.Metrics[m.Name])
		s.Runs, s.Sample = len(s.Values), d.Samples[m.Name]
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
	}
	if !d.Correct {
		wr.Correct = false
		for _, f := range d.Failures {
			wr.Failures = append(wr.Failures, fmt.Sprintf("seed %d: %s", d.Seed, f))
		}
	}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
		r.Env.CPUModel, r.Env.NumCPU, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "seed %d, %d run(s) of %.0f s per workload; values are medians over the runs\n\n", r.Seed, r.Runs, r.Seconds)
	for _, catalogue := range [][]metric{reported(false), reported(true)} {
		fmt.Fprintf(w, "%-34s %-8s", "metric", "unit")
		for _, wr := range r.Workloads {
			fmt.Fprintf(w, " %14s", wr.Name)
		}
		fmt.Fprintln(w)
		for _, m := range catalogue {
			fmt.Fprintf(w, "%-34s %-8s", m.Name, m.Unit)
			for _, wr := range r.Workloads {
				if s := wr.Metrics[m.Name]; s != nil {
					fmt.Fprintf(w, " %14.6g", s.Median)
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	for _, wr := range r.Workloads {
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "FAILED %s: %s\n", wr.Name, f)
		}
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
