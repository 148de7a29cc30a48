package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"middle/internal/obs"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); ids are 1-based positions in
// the recorder's list.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil recorder is the untraced mode: every method returns at once, so
// the runners and decorators hold one unconditionally.
type recorder struct {
	runID string
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// current is the open round span that decorator spans attach to.
	current atomic.Int64
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, epoch: time.Now()}
}

// open starts a span and returns its id; close ends it.
func (r *recorder) open(name string, parent int, at time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: at.Sub(r.epoch)})
	return len(r.spans)
}

func (r *recorder) close(id int, at time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = at.Sub(r.epoch)
	r.mu.Unlock()
}

// add records a finished span under the current round span. Calls made
// while no round is open (the deployment's warm-up rounds) are dropped.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	if parent := int(r.current.Load()); parent != 0 {
		r.mu.Lock()
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent, Name: name,
			Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
		})
		r.mu.Unlock()
	}
}

func (r *recorder) setCurrent(id int) {
	if r != nil {
		r.current.Store(int64(id))
	}
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (edges select concurrently) and are clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanTotals sums duration, self time and count per span name.
type spanTotal struct {
	total, self time.Duration
	count       int
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.total += s.End - s.Start
		t.self += self[i]
		t.count++
		out[s.Name] = t
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (the
// format internal/obs writes, loadable in Perfetto). Each name gets its
// own track; span, parent and the shared run id travel in args.
func writeChromeTrace(w io.Writer, runID string, spans []span) error {
	tracks := make(map[string]int)
	events := make([]obs.TraceEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tracks[s.Name]
		if !ok {
			tid = len(tracks)
			tracks[s.Name] = tid
		}
		args := map[string]any{"run": runID, "span": strconv.Itoa(s.ID)}
		if s.Parent != 0 {
			args["parent"] = strconv.Itoa(s.Parent)
		}
		// Truncating both ends (not the duration) keeps a child inside
		// its parent at microsecond resolution.
		ts := s.Start.Microseconds()
		events = append(events, obs.TraceEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Ts: ts, Dur: s.End.Microseconds() - ts,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
