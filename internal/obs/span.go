package obs

import (
	"context"
	"time"
)

// Span is one in-flight interval of a phase. It feeds both instruments
// at once: the phase timer of a Recorder and, when the operation is
// traced, a trace span named after the phase. The phase table is thus the
// only name table — a trace span is always named p.String(), and a phase
// started under a trace span counts as many observations in the trace as
// it has spans there (up to the span cap).
//
// Get one from Start (code that receives a context) or StartUnder (code
// that threads an explicit *TraceSpan parent through its recursion). The
// zero Span is a no-op; so is any Span with neither a recorder nor a
// trace, which is started and ended without reading the clock.
type Span struct {
	rec   *Recorder
	ts    *TraceSpan
	phase Phase
	start time.Time
}

// RecorderFor resolves the recorder for one ctx-scoped operation: the
// trace's forwarding recorder when ctx carries a trace (per-request
// deltas, forwarded to the trace's base), base otherwise. Callers keep
// the invariant that a trace on ctx was created over base, so base still
// sees every observation exactly once.
func RecorderFor(ctx context.Context, base *Recorder) *Recorder {
	if tr := TraceFrom(ctx); tr != nil {
		return tr.rec
	}
	return base
}

// Start begins phase p for one ctx-scoped operation. rec is
// RecorderFor(ctx, base); the caller records the operation's counters
// into it. When ctx carries a trace, Start also opens a span named after
// p under SpanFrom(ctx) and returns a ctx carrying that span, so deeper
// layers nest below it. Untraced, ctx is returned unchanged: no
// context.WithValue, no allocation.
func Start(ctx context.Context, base *Recorder, p Phase) (context.Context, *Recorder, Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, base, StartUnder(base, nil, p)
	}
	now := time.Now()
	ts := tr.startSpanAt(SpanFrom(ctx), p.String(), now)
	if ts != nil {
		ctx = WithSpan(ctx, ts)
	}
	return ctx, tr.rec, Span{rec: tr.rec, ts: ts, phase: p, start: now}
}

// StartUnder begins phase p on rec with a trace span under parent. A nil
// parent times the phase without a trace span — the form for phases that
// are too frequent or too detached from a request to trace (worker_busy,
// wal_append, snapshot, treestore_load, treestore_persist).
func StartUnder(rec *Recorder, parent *TraceSpan, p Phase) Span {
	if rec == nil && parent == nil {
		return Span{}
	}
	now := time.Now()
	var ts *TraceSpan
	if parent != nil {
		ts = parent.tr.startSpanAt(parent, p.String(), now)
	}
	return Span{rec: rec, ts: ts, phase: p, start: now}
}

// End finishes the span: one clock read feeds the phase timer and fixes
// the trace span's duration.
func (s Span) End() {
	if s.rec == nil && s.ts == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.rec.observeNs(s.phase, d)
	s.ts.endNs(d)
}

// SetAttr attaches an integer attribute to the trace span (a no-op when
// untraced).
func (s Span) SetAttr(key string, v int64) { s.ts.SetAttr(key, v) }

// TraceSpan returns the span's trace span, nil when untraced. Pass it as
// the parent of nested StartUnder calls.
func (s Span) TraceSpan() *TraceSpan { return s.ts }
