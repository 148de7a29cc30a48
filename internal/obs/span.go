package obs

import "time"

// Span times named phases of work into a duration histogram (seconds).
// The usual shape is one Span per phase, resolved once at setup:
//
//	span := reg.Span("sim_phase_seconds", "phase", "local_train")
//	tok := span.Begin()
//	work()
//	tok.End()
//
// Begin/End are goroutine-safe (overlapping tokens from many goroutines
// record independently), allocation-free (the token is a value), and on
// a nil Span cost one nil check each — no clock read.
type Span struct{ h *Histogram }

// Span registers (or fetches) a seconds histogram for a phase timer.
func (r *Registry) Span(name string, labels ...string) *Span {
	if r == nil {
		return nil
	}
	return &Span{h: r.Histogram(name, DurationBuckets(), labels...)}
}

// SpanToken is an in-flight phase started by Span.Begin. The zero token
// (from a nil Span) is valid and inert.
type SpanToken struct {
	s     *Span
	start time.Time
}

// Begin starts timing one execution of the phase.
func (s *Span) Begin() SpanToken {
	if s == nil {
		return SpanToken{}
	}
	return SpanToken{s: s, start: time.Now()}
}

// End records the elapsed time and returns it (0 for an inert token).
func (t SpanToken) End() time.Duration {
	if t.s == nil {
		return 0
	}
	d := time.Since(t.start)
	t.s.h.Observe(d.Seconds())
	return d
}

// Observe records an externally measured duration, for callers that
// already hold a wall-clock delta. Nil-safe.
func (s *Span) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.h.Observe(d.Seconds())
}
