package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Trace collects Chrome trace-event records ("X" complete events plus
// "M" metadata) so a run's causal structure — rounds containing phases
// containing RPCs — can be opened in Perfetto or chrome://tracing.
//
// Causality is explicit: every span carries its own id in args["span"]
// and its parent's id in args["parent"], so the tree survives tools
// that ignore stack nesting, and ValidateTraceEvents can check it.
// Components are told the parent id out of band (in-process via shared
// state, across fednet via the protocol envelope's Span field).
//
// A nil *Trace is the disabled mode: every method no-ops at the cost of
// one nil check, so hot paths hold the pointer unconditionally. Enabled
// recording takes a mutex and appends; the event buffer is bounded
// (DefaultTraceCap) and drops-with-count once full, keeping a
// long-lived daemon's memory finite.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []TraceEvent
	names  map[int]string // pid -> process name metadata
	max    int
}

// TraceEvent is one Chrome trace-event record. Ts and Dur are
// microseconds relative to the trace's start.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultTraceCap bounds the event buffer when NewTrace is given 0:
// 64k events ≈ 10k traced rounds, a few MB at most.
const DefaultTraceCap = 1 << 16

// NewTrace returns an empty trace whose clock starts now. maxEvents
// bounds the buffer (0 = DefaultTraceCap); once full, further events
// are dropped.
func NewTrace(maxEvents int) *Trace {
	if maxEvents <= 0 {
		maxEvents = DefaultTraceCap
	}
	return &Trace{start: time.Now(), names: map[int]string{}, max: maxEvents}
}

// Enabled reports whether events are being collected (false for nil).
func (t *Trace) Enabled() bool { return t != nil }

// Now returns the current time (zero for nil) — the value to pass back
// to Complete as the span's start, avoiding a second clock source.
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// SetProcessName attaches a display name to a pid (shown as the process
// label in Perfetto). Idempotent per pid.
func (t *Trace) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.names[pid]; !ok {
		t.names[pid] = name
	}
	t.mu.Unlock()
}

// Complete records one "X" complete event spanning [start, start+d).
// span identifies this event and parent its enclosing span ("" for a
// root); both land in args alongside extraArgs, which may be nil and is
// not retained. The event's end is truncated to a microsecond like its
// start, and Dur is their difference: a span that lies inside another to
// the nanosecond lies inside it on the microsecond grid too, which a
// duration truncated on its own does not guarantee.
func (t *Trace) Complete(name, cat string, pid, tid int, start time.Time, d time.Duration, span, parent string, extraArgs map[string]any) {
	if t == nil {
		return
	}
	args := make(map[string]any, len(extraArgs)+2)
	for k, v := range extraArgs {
		args[k] = v
	}
	if span != "" {
		args["span"] = span
	}
	if parent != "" {
		args["parent"] = parent
	}
	begin := start.Sub(t.start)
	ev := TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  begin.Microseconds(),
		Dur: (begin + d).Microseconds() - begin.Microseconds(),
		Pid: pid, Tid: tid, Args: args,
	}
	t.mu.Lock()
	if len(t.events) < t.max {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Len returns the number of collected events (0 for nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a snapshot copy of the collected events, metadata
// first (nil for a nil trace).
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.events)+len(t.names))
	for pid, name := range t.names {
		out = append(out, TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	// Metadata iteration order is map-random; keep it deterministic.
	meta := out
	for i := 1; i < len(meta); i++ {
		for j := i; j > 0 && meta[j].Pid < meta[j-1].Pid; j-- {
			meta[j], meta[j-1] = meta[j-1], meta[j]
		}
	}
	return append(out, t.events...)
}

// WriteJSON writes the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable in Perfetto. Nil-safe: a nil trace
// writes an empty, still-valid document.
func (t *Trace) WriteJSON(w io.Writer) error {
	doc := struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
		DisplayUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: t.Events(), DisplayUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadTraceJSON parses a document written by WriteJSON back into its
// event list.
func ReadTraceJSON(r io.Reader) ([]TraceEvent, error) {
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decoding trace JSON: %w", err)
	}
	return doc.TraceEvents, nil
}

// ValidateTraceEvents checks the causal-tree invariants of a single
// process's span set: every complete event has a sane timestamp and
// duration, span ids are unique, and every parent reference resolves to
// a span whose [ts, ts+dur] window contains the child.
func ValidateTraceEvents(events []TraceEvent) error {
	spans := map[string]TraceEvent{}
	for i, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < 0 || e.Dur < 0 {
			return fmt.Errorf("obs: event %d (%s) has negative ts/dur (%d, %d)", i, e.Name, e.Ts, e.Dur)
		}
		id, _ := e.Args["span"].(string)
		if id == "" {
			continue
		}
		if _, dup := spans[id]; dup {
			return fmt.Errorf("obs: duplicate span id %q", id)
		}
		spans[id] = e
	}
	for i, e := range events {
		if e.Ph != "X" {
			continue
		}
		parent, _ := e.Args["parent"].(string)
		if parent == "" {
			continue
		}
		p, ok := spans[parent]
		if !ok {
			return fmt.Errorf("obs: event %d (%s) references unknown parent span %q", i, e.Name, parent)
		}
		if e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur {
			return fmt.Errorf("obs: event %d (%s) [%d,%d] escapes parent %q [%d,%d]",
				i, e.Name, e.Ts, e.Ts+e.Dur, parent, p.Ts, p.Ts+p.Dur)
		}
	}
	return nil
}
