package experiments

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/flight"
	"middle/internal/robust"
)

// CLI is what cmd/middlesim and cmd/middled have in common: the flags
// both take, bound straight into the fields and configs that consume
// them, and the process bootstrap around a run — Start before it, the
// function Start returns deferred across it, Finish after it.
type CLI struct {
	// Name is the binary's name; with the mode given to Start it names
	// the run in flight bundles and summaries ("middled-cloud").
	Name string
	// Logf prints one progress line ("metrics listening on …").
	Logf func(format string, args ...any)
	// EventSink receives the JSONL event stream. Nil leaves events to the
	// flight recorder's ring, when that is armed, or off.
	EventSink io.Writer

	Task, Scale string        // -task, -scale
	Seed        int64         // -seed
	Metrics     MetricsConfig // -metrics-addr -tsdb-interval -slo -flight-dir -profile-interval; Start fills in the rest
	Results     string        // -results
	TraceOut    string        // -trace-out

	// M, Trace and Events are the run's observability handles, set by
	// Start; each is nil, and inert, when no flag asked for it.
	M      *Metrics
	Trace  *obs.Trace
	Events *obs.Emitter

	flags *flag.FlagSet
	run   string // Name-mode
}

// RegisterFlags declares the shared flags on fs: task, scale and seed,
// and the seven observability flags.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	c.flags = fs
	fs.StringVar(&c.Task, "task", "mnist", "task: mnist|emnist|cifar10|speech")
	fs.StringVar(&c.Scale, "scale", "fast", "scale: fast|paper")
	fs.Int64Var(&c.Seed, "seed", 1, "root random seed (every component of a deployment must share it)")
	fs.StringVar(&c.Metrics.Addr, "metrics-addr", "", "serve /metrics, /status, /dashboard, /api/query and /debug/pprof on this address (empty = disabled)")
	fs.DurationVar(&c.Metrics.TSDBInterval, "tsdb-interval", 0, "embedded time-series store scrape interval (0 = 1s when anything reads the store, else disabled)")
	fs.StringVar(&c.Metrics.SLORules, "slo", "", "SLO rules to gate the run on (\"default\" or \"name: reducer(series[,window]) op threshold; ...\"); a rule that ever fired fails the process")
	fs.StringVar(&c.Metrics.FlightDir, "flight-dir", "", "arm the flight recorder: postmortem bundles (profiles, tsdb dump, event ring, SLO state) land here on SLO breach, panic, SIGQUIT/SIGUSR1 or fatal exit")
	fs.DurationVar(&c.Metrics.ProfileInterval, "profile-interval", 0, "continuous-profiler CPU window length; publishes profile_cpu_seconds_total{phase} / profile_alloc_bytes_total{phase} (0 = disabled)")
	fs.StringVar(&c.Results, "results", "", "directory for the run summary JSON (empty = disabled)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write this process's Chrome trace-event JSON here on exit (load in Perfetto)")
}

// AggregationFlags declares the Eq. 6/Eq. 7 combiner flags on fs, bound
// to the fields of the config that aggregates (hfl.Config or a fednet one).
func AggregationFlags(fs *flag.FlagSet, kind *robust.AggregatorKind, validate *robust.ValidatorConfig, selNormCap *float64) {
	fs.TextVar(kind, "aggregator", robust.AggregatorKind(""), "Eq. 6/Eq. 7 combination rule: mean|trimmed-mean (default mean; trimmed-mean drops 20% per side)")
	fs.Var(normBound{validate}, "norm-bound", "reject updates with norm > c*median(cohort norms); also rejects NaN/Inf models (0 = off)")
	fs.Float64Var(selNormCap, "sel-norm-cap", 0, "exclude devices with update norm above this from Eq. 12 selection (0 = off)")
}

// normBound is -norm-bound: a positive bound switches the validator on.
type normBound struct{ v *robust.ValidatorConfig }

func (n normBound) String() string {
	if n.v == nil { // the zero Value the flag package builds to print defaults
		return "0"
	}
	return strconv.FormatFloat(n.v.NormBound, 'g', -1, 64)
}

func (n normBound) Set(s string) error {
	bound, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*n.v = robust.ValidatorConfig{}
	if bound > 0 {
		*n.v = robust.ValidatorConfig{Enabled: true, NormBound: bound}
	}
	return nil
}

// Start brings up what the observability flags ask for and publishes the
// run's mode ("role"/"cloud", "experiment"/"fig6") on /status. Defer what
// it returns across the run: that leaves a flight bundle behind a panic,
// then stops the signal hooks and the listener.
func (c *CLI) Start(modeKey, mode string) func() {
	c.run = c.Name + "-" + mode
	var ring *flight.EventRing
	if c.Metrics.FlightDir != "" {
		ring = flight.NewEventRing(0)
	}
	c.Events = obs.NewEmitter(ring.Tee(c.EventSink))
	extra := map[string]any{}
	c.flags.VisitAll(func(f *flag.Flag) { extra[f.Name] = f.Value.String() })
	c.Metrics.Events, c.Metrics.FlightEvents = c.Events, ring
	c.Metrics.FlightManifest = obs.Manifest{Name: c.run, Command: os.Args, Extra: extra}
	m, err := StartMetricsConfig(c.Metrics)
	if err != nil {
		c.Fatalf("%s: %v", c.Name, err)
	}
	c.M = m
	var recorder *flight.Recorder
	if m != nil {
		if m.server != nil {
			c.Logf("metrics listening on %s", m.server.Addr())
		}
		m.status.Set(modeKey, mode)
		m.status.Set("task", c.Task)
		m.status.Set("scale", c.Scale)
		recorder = m.recorder
	}
	// The trace behind /debug/trace doubles as the -trace-out source;
	// with metrics off a standalone collector still feeds the file.
	c.Trace = m.Trace()
	if c.TraceOut != "" && c.Trace == nil {
		c.Trace = obs.NewTrace(0)
	}
	stopSignals := recorder.NotifySignals() // SIGQUIT: bundle, exit 2; SIGUSR1: bundle
	return func() {
		v := recover() // must be called here, by the deferred function itself
		if v != nil {
			m.CaptureFlight(fmt.Sprintf("panic %v", v))
		}
		stopSignals()
		m.Close()
		if v != nil {
			panic(v)
		}
	}
}

// Attach threads the run's registry, event stream and trace into a task
// setup, and through it into every configuration the setup produces.
func (c *CLI) Attach(s *TaskSetup) *TaskSetup {
	s.Obs, s.Events, s.Trace = c.M.Registry(), c.Events, c.Trace
	return s
}

// Fatalf leaves a flight bundle (when the recorder is armed) and exits 1
// with the message.
func (c *CLI) Fatalf(format string, args ...any) {
	c.M.CaptureFlight("fatal " + fmt.Sprintf(format, args...))
	log.Fatalf(format, args...)
}

// Finish ends a run that returned: the final SLO scrape and evaluation
// (first, so a breach event still reaches the event stream), the tsdb
// dump, the run summary with extra in its manifest, the trace file. It
// returns the rules that ever breached, for the caller's exit code.
func (c *CLI) Finish(extra map[string]any) (breached []string) {
	if m := c.M; m != nil {
		m.store.Close()  // stops the scrape loop after one last scrape
		m.engine.Close() // stops the rule loop after one last evaluation
		breached = m.engine.Breached()
		if out := c.Metrics.TSDBOut; out != "" {
			if err := m.store.DumpToFile(out); err != nil {
				c.Fatalf("%s: writing %s: %v", c.Name, out, err)
			}
			c.Logf("wrote tsdb dump %s", out)
		}
		if c.Results != "" {
			now := time.Now()
			path := obs.SummaryPath(c.Results, c.run, now)
			manifest := obs.Manifest{Name: c.run, Command: os.Args, Started: m.started, Finished: now, Extra: extra}
			if err := obs.WriteSummary(path, manifest, m.reg); err != nil {
				c.Fatalf("%s: writing summary: %v", c.Name, err)
			}
			c.Logf("wrote summary %s", path)
		}
	}
	if c.TraceOut != "" {
		f, err := os.Create(c.TraceOut)
		if err == nil {
			err = c.Trace.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			c.Fatalf("%s: writing %s: %v", c.Name, c.TraceOut, err)
		}
		c.Logf("wrote trace %s (%d spans)", c.TraceOut, c.Trace.Len())
	}
	return breached
}
