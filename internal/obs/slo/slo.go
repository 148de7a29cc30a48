// Package slo is a declarative health gate over the tsdb: rules state
// what a healthy run looks like ("round p99 under 5s", "zero quorum
// misses per minute") as reductions over stored series, an engine
// evaluates them continuously, and the daemons turn "ever breached"
// into a non-zero exit code — so CI smoke runs fail on regressions a
// pass/fail test can't see.
//
// A rule expresses the HEALTHY condition; it breaches when the
// comparison is false. Rules whose window the data does not yet span
// are "pending" and never breach — a 60s-window rule cannot fire ten
// seconds into a run.
package slo

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"middle/internal/obs"
	"middle/internal/obs/tsdb"
)

// Rule is one health condition: Reducer(Series, Window) Op Threshold,
// optionally required to fail For a sustained duration before firing.
type Rule struct {
	// Name identifies the rule in alerts, events and exit summaries.
	Name string
	// Reducer is a tsdb reducer: last, avg, min, max, spread, delta,
	// rate, or pNN (histogram quantile).
	Reducer string
	// Series is a stored series name or '*' glob. Globs reduce each
	// match and take the worst (maximum).
	Series string
	// Window bounds the reduction (0 = all retained history).
	Window time.Duration
	// Op compares the reduced value to Threshold: < <= > >= == !=.
	// The rule is healthy when the comparison holds.
	Op string
	// Threshold is the healthy bound.
	Threshold float64
	// For requires the condition to fail continuously this long before
	// the rule fires (0 = fire on first failed evaluation).
	For time.Duration
}

func (r Rule) String() string {
	w := ""
	if r.Window > 0 {
		w = "," + r.Window.String()
	}
	s := fmt.Sprintf("%s: %s(%s%s) %s %g", r.Name, r.Reducer, r.Series, w, r.Op, r.Threshold)
	if r.For > 0 {
		s += " for " + r.For.String()
	}
	return s
}

// ruleRE parses `name: reducer(series[,window]) op threshold [for dur]`.
// Series may contain anything but ',' and '(' ')' at the top level —
// label braces included.
var ruleRE = regexp.MustCompile(`^\s*([A-Za-z0-9_.-]+)\s*:\s*([A-Za-z0-9]+)\(\s*([^,()]+?)\s*(?:,\s*([0-9a-z.]+)\s*)?\)\s*(<=|>=|==|!=|<|>)\s*([-+0-9.eE]+|[0-9]+[KMGTkmgt]i?[Bb]?)\s*(?:for\s+([0-9a-z.]+)\s*)?$`)

// ParseRules parses a rule list: rules separated by ';' or newlines.
// Blank entries and '#' comment lines are skipped. The literal string
// "default" yields DefaultRules. Thresholds accept size suffixes
// (2GiB, 512MiB, 4K) alongside plain numbers.
func ParseRules(s string) ([]Rule, error) {
	if strings.TrimSpace(s) == "default" {
		return DefaultRules(), nil
	}
	var rules []Rule
	for _, line := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := ruleRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("slo: cannot parse rule %q (want name: reducer(series[,window]) op threshold [for dur])", line)
		}
		r := Rule{Name: m[1], Reducer: m[2], Series: m[3], Op: m[5]}
		if m[4] != "" {
			d, err := time.ParseDuration(m[4])
			if err != nil {
				return nil, fmt.Errorf("slo: rule %q: bad window %q: %v", r.Name, m[4], err)
			}
			r.Window = d
		}
		thr, err := parseThreshold(m[6])
		if err != nil {
			return nil, fmt.Errorf("slo: rule %q: bad threshold %q: %v", r.Name, m[6], err)
		}
		r.Threshold = thr
		if m[7] != "" {
			d, err := time.ParseDuration(m[7])
			if err != nil {
				return nil, fmt.Errorf("slo: rule %q: bad for-duration %q: %v", r.Name, m[7], err)
			}
			r.For = d
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: no rules in %q", s)
	}
	return rules, nil
}

var sizeSuffixes = []struct {
	suffix string
	mult   float64
}{
	{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
	{"G", 1e9}, {"M", 1e6}, {"K", 1e3}, {"k", 1e3},
}

func parseThreshold(s string) (float64, error) {
	for _, sz := range sizeSuffixes {
		if strings.HasSuffix(s, sz.suffix) {
			base, err := strconv.ParseFloat(strings.TrimSuffix(s, sz.suffix), 64)
			if err != nil {
				return 0, err
			}
			return base * sz.mult, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}

// DefaultRules is the standing health contract for a simulation or
// daemon run: latency, liveness, robustness, memory, and progress.
// Rules over series a run never produces stay pending and pass.
func DefaultRules() []Rule {
	mustParse := func(s string) []Rule {
		rules, err := ParseRules(s)
		if err != nil {
			panic(err)
		}
		return rules
	}
	return mustParse(strings.Join([]string{
		// Latency: simulated rounds and live cloud rounds stay fast.
		`sim_round_p99: p99(sim_round_seconds,60s) < 5`,
		`cloud_round_p99: p99(fednet_rpc_seconds{op="cloud_round"},60s) < 30`,
		// Liveness: quorums keep being met.
		`fednet_quorum_misses: delta(fednet_quorum_misses_total,60s) <= 0`,
		// Robustness: no update floods past the robust aggregators.
		`robust_rejects: delta(robust_rejected_updates_total*,60s) <= 100`,
		// Memory: the scale-out ceiling from ROADMAP.
		`rss_ceiling: last(process_peak_rss_bytes) < 2GiB`,
		// Self-healing: every device re-homes within the lease deadline
		// (no device stays stranded 5s past a failover), and failovers
		// themselves resolve quickly.
		`stranded_devices: last(fednet_stranded_devices) <= 0 for 5s`,
		`failover_latency: p99(fednet_failover_seconds,60s) < 5`,
		// Progress: global accuracy still moving over a 10-minute window.
		`accuracy_stall: spread(hfl_global_accuracy,600s) > 0.0005`,
	}, "; "))
}

// Alert is one rule's live state.
type Alert struct {
	Name  string  `json:"name"`
	State string  `json:"state"` // "ok" | "pending" | "firing"
	Value float64 `json:"value"`
	Rule  string  `json:"rule"`
	// Detail is a human line: "delta(fednet_quorum_misses_total,60s) = 3, want <= 0".
	Detail string `json:"detail,omitempty"`
	// Since is when the rule entered its current state (unix ms).
	Since int64 `json:"since,omitempty"`
}

// ruleState tracks one rule across evaluations.
type ruleState struct {
	rule        Rule
	firing      bool
	failedSince time.Time // zero = currently healthy or pending
	everFired   bool
	lastValue   float64
	lastState   string
	since       time.Time
}

// Config configures an Engine.
type Config struct {
	// Store is the tsdb the rules reduce over (required).
	Store *tsdb.Store
	// Rules to evaluate (required, non-empty).
	Rules []Rule
	// Interval between evaluations for Start (default: the store's
	// scrape interval, else 1s).
	Interval time.Duration
	// Events, when set, receives slo_breach / slo_resolve events on
	// state transitions.
	Events *obs.Emitter
	// OnBreach, when set, is invoked once per rule transition into
	// firing, after the evaluation pass and outside the engine's lock —
	// the flight recorder hooks here so a bundle is captured while the
	// breach-time state is still live. It runs synchronously in the
	// evaluation goroutine, so a capture completes before the daemons'
	// exit gates can act on Breached.
	OnBreach func(rule string)
}

// Engine evaluates rules on a cadence and remembers every breach.
// Nil-safe: a nil *Engine no-ops everywhere, so callers thread it
// unconditionally like the other obs types.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	states []*ruleState

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds an engine. Errors when Store or Rules are missing.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("slo: Config.Store is required")
	}
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("slo: Config.Rules is empty")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Store.Interval()
		if cfg.Interval <= 0 {
			cfg.Interval = time.Second
		}
	}
	e := &Engine{cfg: cfg}
	for _, r := range cfg.Rules {
		e.states = append(e.states, &ruleState{rule: r, lastState: "pending"})
	}
	return e, nil
}

// Start launches the background evaluation loop; Close stops it.
func (e *Engine) Start() {
	if e == nil || e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		tick := time.NewTicker(e.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				e.EvalNow()
			case <-e.stop:
				return
			}
		}
	}()
}

// Close stops the loop and runs one final evaluation so the freshest
// scrape is judged before the exit gate reads Breached. Nil-safe.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	if e.stop != nil {
		close(e.stop)
		e.wg.Wait()
		e.stop = nil
	}
	e.EvalNow()
}

func compare(v float64, op string, thr float64) bool {
	switch op {
	case "<":
		return v < thr
	case "<=":
		return v <= thr
	case ">":
		return v > thr
	case ">=":
		return v >= thr
	case "==":
		return v == thr
	case "!=":
		return v != thr
	}
	return false
}

// EvalNow evaluates every rule against the store once. Nil-safe.
// OnBreach callbacks for rules that transitioned into firing run after
// the pass, outside the engine's lock.
func (e *Engine) EvalNow() {
	if e == nil {
		return
	}
	now := time.Now()
	var newlyFiring []string
	e.mu.Lock()
	for _, st := range e.states {
		v, ok := e.cfg.Store.Reduce(st.rule.Series, st.rule.Reducer, st.rule.Window)
		var state string
		switch {
		case !ok:
			state = "pending"
			st.failedSince = time.Time{}
		case compare(v, st.rule.Op, st.rule.Threshold):
			state = "ok"
			st.failedSince = time.Time{}
		default:
			if st.failedSince.IsZero() {
				st.failedSince = now
			}
			if now.Sub(st.failedSince) >= st.rule.For {
				state = "firing"
			} else {
				state = "pending" // failing, but not sustained long enough
			}
		}
		st.lastValue = v
		if state != st.lastState {
			st.since = now
		}
		wasFiring := st.firing
		st.firing = state == "firing"
		st.lastState = state
		if st.firing {
			if !wasFiring {
				st.everFired = true
				e.cfg.Events.Emit("slo_breach",
					"rule", st.rule.Name,
					"value", v,
					"detail", detail(st.rule, v))
				newlyFiring = append(newlyFiring, st.rule.Name)
			}
		} else if wasFiring {
			e.cfg.Events.Emit("slo_resolve",
				"rule", st.rule.Name,
				"value", v)
		}
	}
	e.mu.Unlock()
	if e.cfg.OnBreach != nil {
		for _, name := range newlyFiring {
			e.cfg.OnBreach(name)
		}
	}
}

func detail(r Rule, v float64) string {
	w := ""
	if r.Window > 0 {
		w = "," + r.Window.String()
	}
	return fmt.Sprintf("%s(%s%s) = %g, want %s %g", r.Reducer, r.Series, w, v, r.Op, r.Threshold)
}

// Alerts snapshots every rule's live state, rule order preserved.
// Nil-safe (returns nil).
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.states))
	for _, st := range e.states {
		a := Alert{
			Name:  st.rule.Name,
			State: st.lastState,
			Value: st.lastValue,
			Rule:  st.rule.String(),
		}
		if st.lastState == "firing" {
			a.Detail = detail(st.rule, st.lastValue)
		}
		if !st.since.IsZero() {
			a.Since = st.since.UnixMilli()
		}
		out = append(out, a)
	}
	return out
}

// Breached returns the names of every rule that fired at any point in
// the run — the exit gate: non-empty means the run fails even if the
// rule recovered later. Nil-safe (returns nil).
func (e *Engine) Breached() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, st := range e.states {
		if st.everFired {
			out = append(out, st.rule.Name)
		}
	}
	return out
}
