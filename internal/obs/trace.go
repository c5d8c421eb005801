package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is the request-scoped observability unit: a hierarchical span
// tree (build → refine/twins/divide_i/divide_s → combine_cl/combine_st)
// plus a private forwarding Recorder whose contents are exactly this
// request's counter deltas and phase timings. The global Recorder answers
// "what is the process doing"; a Trace answers the operator's next
// question, "which request burned the budget, and in which phase".
//
// A Trace travels in a context.Context (WithTrace/TraceFrom) alongside
// the current parent span (WithSpan/SpanFrom). Instrumented layers open
// no trace spans themselves: a phase Span (Start at ctx entry points,
// StartUnder along explicit *TraceSpan parents through their recursion)
// opens one named after its phase. A nil *Trace is a valid disabled
// trace — every method no-ops (StartSpan returns a nil *TraceSpan,
// itself a valid no-op span), so instrumentation costs one predictable
// nil check when tracing is off and allocates nothing.
//
// The span tree is bounded: once maxSpans spans exist, further spans are
// refused (nil) and counted as dropped — their would-be descendants are
// then untraced and not counted — so a pathological build (millions of
// tree nodes) cannot balloon a request record.
//
// Concurrency: a Trace is safe for concurrent use — parallel subtree
// builders attach spans to the same parent. Span attachment and
// attributes are guarded by one mutex; End is a single atomic store.
type Trace struct {
	id       string
	start    time.Time
	rec      *Recorder // forwarding recorder: request deltas + global totals
	maxSpans int

	mu      sync.Mutex
	root    *TraceSpan
	spans   int
	dropped int64
}

// DefaultMaxSpans bounds the span tree of one Trace unless overridden
// with SetMaxSpans. Sized to hold every phase of a typical build with
// room for a few hundred tree-node spans.
const DefaultMaxSpans = 1024

// NewTrace starts a trace for one request. Observations recorded through
// Recorder() are kept as this request's deltas and forwarded to base —
// pass the same recorder the downstream layers use as their global one,
// or nil for a standalone trace. The root span ("request") is already
// running; End it (or snapshot before ending) when the request finishes.
func NewTrace(id string, base *Recorder) *Trace {
	t := &Trace{
		id:       id,
		start:    time.Now(),
		rec:      NewForwarding(base),
		maxSpans: DefaultMaxSpans,
	}
	t.root = &TraceSpan{tr: t, name: "request", start: t.start}
	t.spans = 1
	return t
}

// SetMaxSpans overrides the span cap (values < 1 keep the current cap).
// Call it before handing the trace to instrumented code.
func (t *Trace) SetMaxSpans(n int) {
	if t == nil || n < 1 {
		return
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

// ID returns the request id the trace was created with ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Recorder returns the trace's private forwarding recorder: recording
// into it lands in the request deltas and in the base recorder the trace
// was created with. Nil on a nil trace (a valid no-op recorder).
func (t *Trace) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Root returns the implicit "request" span (nil on a nil trace).
func (t *Trace) Root() *TraceSpan {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child span of parent (of the root span when parent
// is nil). It returns nil — a valid no-op span — on a nil trace or once
// the span cap is reached; dropped spans are counted in the snapshot.
func (t *Trace) StartSpan(parent *TraceSpan, name string) *TraceSpan {
	if t == nil {
		return nil
	}
	return t.startSpanAt(parent, name, time.Now())
}

// startSpanAt is StartSpan on a non-nil trace with the start time read
// by the caller (a phase Span shares it with its timer).
func (t *Trace) startSpanAt(parent *TraceSpan, name string, now time.Time) *TraceSpan {
	t.mu.Lock()
	if t.spans >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	if parent == nil {
		parent = t.root
	}
	s := &TraceSpan{tr: t, name: name, start: now}
	parent.children = append(parent.children, s)
	t.spans++
	t.mu.Unlock()
	return s
}

// TraceSpan is one node of a trace's span tree. A nil *TraceSpan is a
// valid no-op span: End, SetAttr and Child all no-op, so call sites never
// nil-check.
type TraceSpan struct {
	tr    *Trace
	name  string
	start time.Time
	durNs atomic.Int64 // 0 while running; ≥1 once ended (clamped)

	// children and attrs are guarded by tr.mu.
	children []*TraceSpan
	attrs    []spanAttr
}

type spanAttr struct {
	key string
	val int64
}

// Child opens a sub-span (nil-safe).
func (s *TraceSpan) Child(name string) *TraceSpan {
	if s == nil {
		return nil
	}
	return s.tr.StartSpan(s, name)
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration; ending a nil span is a no-op.
func (s *TraceSpan) End() {
	if s == nil {
		return
	}
	s.endNs(int64(time.Since(s.start)))
}

// endNs closes the span with duration d (nil-safe).
func (s *TraceSpan) endNs(d int64) {
	if s == nil {
		return
	}
	if d < 1 {
		d = 1 // 0 is reserved for "still running"
	}
	s.durNs.CompareAndSwap(0, d)
}

// SetAttr attaches (or overwrites) an integer attribute — graph size,
// search nodes, truncation flags. Nil-safe.
func (s *TraceSpan) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = v
			s.tr.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, spanAttr{key: key, val: v})
	s.tr.mu.Unlock()
}

// SpanSnapshot is the JSON form of one span: durations in nanoseconds,
// start as an offset from the trace start.
type SpanSnapshot struct {
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	DurNs    int64            `json:"dur_ns"`
	Running  bool             `json:"running,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []SpanSnapshot   `json:"children,omitempty"`
}

// TraceSnapshot is the JSON form of a whole trace: the span tree plus
// the request's counter deltas (non-zero only) and phase timings.
type TraceSnapshot struct {
	ID           string                `json:"id"`
	Start        time.Time             `json:"start"`
	DurNs        int64                 `json:"dur_ns"`
	DroppedSpans int64                 `json:"dropped_spans,omitempty"`
	Spans        SpanSnapshot          `json:"spans"`
	Counters     map[string]int64      `json:"counters,omitempty"`
	Phases       map[string]PhaseStats `json:"phases,omitempty"`
}

// Snapshot copies the trace: span tree, per-request counter deltas
// (non-zero only — a request record should not carry 30 zeros) and phase
// stats. Safe to call while spans are still being recorded; running
// spans report their elapsed time so far with Running set.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	rs := t.rec.Snapshot()
	for name, v := range rs.Counters {
		if v == 0 {
			delete(rs.Counters, name)
		}
	}
	t.mu.Lock()
	snap := TraceSnapshot{
		ID:           t.id,
		Start:        t.start,
		DroppedSpans: t.dropped,
		Spans:        t.snapshotSpanLocked(t.root),
		Counters:     rs.Counters,
		Phases:       rs.Phases,
	}
	t.mu.Unlock()
	snap.DurNs = snap.Spans.DurNs
	return snap
}

// snapshotSpanLocked copies one span subtree; t.mu is held.
func (t *Trace) snapshotSpanLocked(s *TraceSpan) SpanSnapshot {
	out := SpanSnapshot{
		Name:    s.name,
		StartNs: int64(s.start.Sub(t.start)),
		DurNs:   s.durNs.Load(),
	}
	if out.DurNs == 0 {
		out.Running = true
		out.DurNs = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, t.snapshotSpanLocked(c))
	}
	return out
}

// Context carriage. The trace and the current parent span ride the
// request context so that layers which only receive a ctx (GraphIndex,
// core.BuildCtx, ssm queries) can attach their spans in the right place
// without new parameters on every signature.

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace returns ctx carrying t. Storing a nil trace explicitly
// shadows any outer trace (see DetachTrace).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil (also on nil ctx).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// WithSpan returns ctx with s as the current parent span: spans started
// by deeper layers attach under it.
func WithSpan(ctx context.Context, s *TraceSpan) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the current parent span of ctx, or nil.
func SpanFrom(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return s
}

// DetachTrace shadows any trace in ctx while keeping its cancellation
// and deadline. Fan-out stages (the bulk pipeline's worker pool) detach
// before spawning per-record builds: hundreds of concurrent builds
// tracing into one span tree would only hit the span cap and contend on
// the trace mutex.
func DetachTrace(ctx context.Context) context.Context {
	if TraceFrom(ctx) == nil && SpanFrom(ctx) == nil {
		return ctx
	}
	return WithSpan(WithTrace(ctx, nil), nil)
}
