package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNilIsInert(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Complete("x", "c", 1, 0, time.Now(), time.Millisecond, "s", "", nil)
	tr.SetProcessName(1, "sim")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace collected something")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("nil trace JSON %q", buf.String())
	}
	if allocs := testing.AllocsPerRun(200, func() {
		tr.Complete("x", "c", 1, 0, time.Time{}, 0, "s", "p", nil)
	}); allocs != 0 {
		t.Fatalf("disabled Complete allocates %.1f/op", allocs)
	}
}

func TestTraceRoundTripAndValidation(t *testing.T) {
	tr := NewTrace(0)
	tr.SetProcessName(1, "cloud")
	tr.SetProcessName(10, "edge0")
	base := tr.Now()
	tr.Complete("round", "fednet", 1, 0, base, 10*time.Millisecond, "c.r1", "", map[string]any{"round": 1})
	tr.Complete("edge_round", "fednet", 10, 0, base.Add(time.Millisecond), 8*time.Millisecond, "e0.r1", "c.r1", nil)
	tr.Complete("train_rpc", "fednet", 10, 3, base.Add(2*time.Millisecond), 5*time.Millisecond, "e0.r1.d3", "e0.r1", nil)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The document must be plain valid JSON.
	var anyDoc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &anyDoc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	events, err := ReadTraceJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// 2 metadata + 3 complete events.
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	if events[0].Ph != "M" || events[0].Pid != 1 || events[1].Pid != 10 {
		t.Fatalf("metadata events wrong: %+v %+v", events[0], events[1])
	}
	if err := ValidateTraceEvents(events); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceValidationCatchesBrokenTrees(t *testing.T) {
	mk := func(span, parent string, ts, dur int64) TraceEvent {
		args := map[string]any{"span": span}
		if parent != "" {
			args["parent"] = parent
		}
		return TraceEvent{Name: span, Ph: "X", Ts: ts, Dur: dur, Args: args}
	}
	// Unknown parent.
	if err := ValidateTraceEvents([]TraceEvent{mk("a", "ghost", 0, 10)}); err == nil {
		t.Fatal("unknown parent accepted")
	}
	// Child escaping the parent window.
	if err := ValidateTraceEvents([]TraceEvent{
		mk("root", "", 0, 10),
		mk("child", "root", 5, 20),
	}); err == nil {
		t.Fatal("escaping child accepted")
	}
	// Duplicate span ids.
	if err := ValidateTraceEvents([]TraceEvent{
		mk("dup", "", 0, 10),
		mk("dup", "", 20, 10),
	}); err == nil {
		t.Fatal("duplicate span ids accepted")
	}
	// Negative duration.
	if err := ValidateTraceEvents([]TraceEvent{{Name: "x", Ph: "X", Ts: 0, Dur: -1}}); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestTraceCapDropsAndCounts(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Complete("e", "", 0, 0, tr.Now(), time.Microsecond, "", "", nil)
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", tr.Dropped())
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace(0)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Complete("e", "t", w, i, tr.Now(), time.Microsecond, "", "", nil)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Fatalf("len %d, want %d", tr.Len(), workers*perWorker)
	}
	if err := ValidateTraceEvents(tr.Events()); err != nil {
		t.Fatal(err)
	}
}

// TestTraceContainmentSurvivesMicrosecondGrid: spans nested to the
// nanosecond must validate as nested once recorded in microseconds,
// wherever inside a microsecond their ends fall. Each case is a child
// ending at or just before its parent's end; offsets are nanoseconds
// from the trace's start.
func TestTraceContainmentSurvivesMicrosecondGrid(t *testing.T) {
	cases := []struct {
		name                                         string
		parentStart, parentEnd, childStart, childEnd time.Duration
	}{
		{"parent starts late in its microsecond", 1399600, 1555500, 1552300, 1555400},
		{"ends share a nanosecond", 1399999, 1555001, 1552999, 1555001},
		{"child is the parent", 900, 2100, 900, 2100},
		{"child ends on a microsecond boundary", 700, 5000, 4999, 5000},
		{"everything inside one microsecond", 1100, 1900, 1200, 1800},
		{"whole microseconds", 1000, 9000, 2000, 9000},
	}
	for _, c := range cases {
		tr := NewTrace(0)
		at := func(offset time.Duration) time.Time { return tr.start.Add(offset) }
		tr.Complete("parent", "test", 1, 0, at(c.parentStart), c.parentEnd-c.parentStart, "p", "", nil)
		tr.Complete("child", "test", 1, 1, at(c.childStart), c.childEnd-c.childStart, "c", "p", nil)
		if err := ValidateTraceEvents(tr.Events()); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		for _, e := range tr.Events() {
			if e.Name == "child" && e.Ts+e.Dur != c.childEnd.Microseconds() {
				t.Errorf("%s: child ends at %d µs, want %d", c.name, e.Ts+e.Dur, c.childEnd.Microseconds())
			}
		}
	}
}
