package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("req-1", nil)
	build := tr.StartSpan(nil, "build")
	build.SetAttr("n", 100)
	refine := build.Child("refine")
	refine.End()
	leaf := build.Child("combine_cl")
	leaf.SetAttr("size", 40)
	leaf.SetAttr("size", 42) // overwrite, not duplicate
	leaf.End()
	build.End()
	tr.Root().End()

	snap := tr.Snapshot()
	if snap.ID != "req-1" {
		t.Fatalf("ID = %q, want req-1", snap.ID)
	}
	root := snap.Spans
	if root.Name != "request" || root.Running {
		t.Fatalf("root = %+v, want ended span named request", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "build" {
		t.Fatalf("root children = %+v, want [build]", root.Children)
	}
	b := root.Children[0]
	if b.Attrs["n"] != 100 {
		t.Fatalf("build attrs = %v, want n=100", b.Attrs)
	}
	if len(b.Children) != 2 || b.Children[0].Name != "refine" || b.Children[1].Name != "combine_cl" {
		t.Fatalf("build children = %+v, want [refine combine_cl]", b.Children)
	}
	if got := b.Children[1].Attrs["size"]; got != 42 {
		t.Fatalf("leaf size attr = %d, want 42 (overwritten)", got)
	}
	for _, s := range []SpanSnapshot{root, b, b.Children[0], b.Children[1]} {
		if s.DurNs < 1 {
			t.Fatalf("span %s has DurNs %d, want >= 1", s.Name, s.DurNs)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

func TestTraceRunningSpanSnapshot(t *testing.T) {
	tr := NewTrace("r", nil)
	s := tr.StartSpan(nil, "slow")
	time.Sleep(time.Millisecond)
	snap := tr.Snapshot()
	child := snap.Spans.Children[0]
	if !child.Running {
		t.Fatalf("unfinished span not marked Running: %+v", child)
	}
	if child.DurNs < int64(time.Millisecond) {
		t.Fatalf("running span DurNs = %d, want >= 1ms elapsed", child.DurNs)
	}
	s.End()
	if got := tr.Snapshot().Spans.Children[0]; got.Running {
		t.Fatalf("ended span still Running: %+v", got)
	}
}

// TestTraceNilSafety drives every Trace/TraceSpan method through nil
// receivers — the disabled-tracing path every instrumented call site
// takes.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Recorder() != nil || tr.Root() != nil {
		t.Fatal("nil trace accessors must return zero values")
	}
	tr.SetMaxSpans(10)
	s := tr.StartSpan(nil, "x")
	if s != nil {
		t.Fatal("StartSpan on nil trace must return nil span")
	}
	s.End()
	s.SetAttr("k", 1)
	if c := s.Child("y"); c != nil {
		t.Fatal("Child of nil span must be nil")
	}
	snap := tr.Snapshot()
	if snap.ID != "" || len(snap.Counters) != 0 {
		t.Fatalf("nil trace snapshot = %+v, want zero value", snap)
	}

	// Context carriage on nil ctx / ctx without a trace.
	if TraceFrom(nil) != nil || SpanFrom(nil) != nil {
		t.Fatal("TraceFrom/SpanFrom on nil ctx must be nil")
	}
	ctx := context.Background()
	if TraceFrom(ctx) != nil || SpanFrom(ctx) != nil {
		t.Fatal("TraceFrom/SpanFrom on bare ctx must be nil")
	}
	if got := DetachTrace(ctx); got != ctx {
		t.Fatal("DetachTrace of an untraced ctx must return ctx unchanged")
	}
}

func TestTraceContextCarriage(t *testing.T) {
	tr := NewTrace("ctx", nil)
	sp := tr.StartSpan(nil, "parent")
	ctx := WithSpan(WithTrace(context.Background(), tr), sp)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if SpanFrom(ctx) != sp {
		t.Fatal("SpanFrom lost the span")
	}
	det := DetachTrace(ctx)
	if TraceFrom(det) != nil || SpanFrom(det) != nil {
		t.Fatal("DetachTrace must shadow both trace and span")
	}
	// The original ctx is untouched.
	if TraceFrom(ctx) != tr {
		t.Fatal("DetachTrace mutated the parent ctx")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap", nil)
	tr.SetMaxSpans(4) // root + 3
	var got int
	for i := 0; i < 10; i++ {
		if tr.StartSpan(nil, "s") != nil {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("spans created = %d, want 3 (cap 4 including root)", got)
	}
	snap := tr.Snapshot()
	if snap.DroppedSpans != 7 {
		t.Fatalf("DroppedSpans = %d, want 7", snap.DroppedSpans)
	}
	if len(snap.Spans.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(snap.Spans.Children))
	}
}

// TestTraceForwarding pins the dual-accounting contract: recording
// through the trace's recorder increments both the request deltas and
// the base recorder, exactly once each.
func TestTraceForwarding(t *testing.T) {
	base := New()
	base.Inc(SearchNodes) // pre-existing global state
	tr := NewTrace("fwd", base)
	rec := tr.Recorder()
	rec.Inc(SearchNodes)
	rec.Add(SearchLeaves, 5)
	rec.ObservePhase(PhaseBuild, 2*time.Millisecond)

	if got := rec.Counter(SearchNodes); got != 1 {
		t.Fatalf("trace delta SearchNodes = %d, want 1 (not the global 2)", got)
	}
	if got := base.Counter(SearchNodes); got != 2 {
		t.Fatalf("base SearchNodes = %d, want 2", got)
	}
	if got := base.Counter(SearchLeaves); got != 5 {
		t.Fatalf("base SearchLeaves = %d, want 5", got)
	}
	bs := base.Snapshot().Phases["build"]
	ts := rec.Snapshot().Phases["build"]
	if bs.Count != 1 || ts.Count != 1 {
		t.Fatalf("phase counts base=%d trace=%d, want 1 and 1", bs.Count, ts.Count)
	}

	// Merge forwards through the chain too (the bulk-worker drain path).
	worker := New()
	worker.Add(SearchNodes, 10)
	rec.Merge(worker)
	if got := rec.Counter(SearchNodes); got != 11 {
		t.Fatalf("trace delta after merge = %d, want 11", got)
	}
	if got := base.Counter(SearchNodes); got != 12 {
		t.Fatalf("base after merge = %d, want 12", got)
	}

	// Trace snapshot keeps only non-zero counters.
	snap := tr.Snapshot()
	if _, ok := snap.Counters["refine_calls"]; ok {
		t.Fatal("trace snapshot must omit zero counters")
	}
	if snap.Counters["search_nodes"] != 11 {
		t.Fatalf("snapshot search_nodes = %d, want 11", snap.Counters["search_nodes"])
	}
}

// TestTraceConcurrent hammers one trace from many goroutines — the
// parallel-subtree-builder shape — and relies on -race for the verdict.
func TestTraceConcurrent(t *testing.T) {
	base := New()
	tr := NewTrace("conc", base)
	parent := tr.StartSpan(nil, "build")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := parent.Child("combine_cl")
				s.SetAttr("size", int64(i))
				tr.Recorder().Inc(SearchNodes)
				s.End()
				if i%50 == 0 {
					_ = tr.Snapshot() // snapshot while recording
				}
			}
		}(w)
	}
	wg.Wait()
	parent.End()
	if got := base.Counter(SearchNodes); got != 8*200 {
		t.Fatalf("base SearchNodes = %d, want %d", got, 8*200)
	}
	snap := tr.Snapshot()
	total := len(snap.Spans.Children[0].Children) + int(snap.DroppedSpans)
	if total != 8*200 {
		t.Fatalf("children + dropped = %d, want %d", total, 8*200)
	}
}

// TestPhaseSpanFeedsBoth pins the one-call contract: a phase Span times
// the phase and, when traced, opens a span named after it with the same
// duration — one clock read at each end feeds both.
func TestPhaseSpanFeedsBoth(t *testing.T) {
	base := New()
	tr := NewTrace("both", base)
	ctx := WithTrace(context.Background(), tr)

	ctx2, rec, sp := Start(ctx, base, PhaseIndexAdd)
	if rec != tr.Recorder() {
		t.Fatal("traced Start must resolve the trace's recorder")
	}
	if SpanFrom(ctx2) != sp.TraceSpan() || sp.TraceSpan() == nil {
		t.Fatal("traced Start must return a ctx carrying its span")
	}
	child := StartUnder(rec, sp.TraceSpan(), PhaseBuild)
	child.SetAttr("n", 5)
	child.End()
	sp.End()
	untimed := StartUnder(rec, nil, PhaseWALAppend)
	untimed.End()

	snap := tr.Snapshot()
	add := snap.Spans.Children[0]
	if add.Name != "index_add" || len(add.Children) != 1 || add.Children[0].Name != "build" {
		t.Fatalf("span tree = %+v, want request → index_add → build", snap.Spans)
	}
	if add.Children[0].Attrs["n"] != 5 {
		t.Fatalf("build attrs = %v, want n=5", add.Children[0].Attrs)
	}
	for _, c := range []struct {
		phase string
		span  SpanSnapshot
	}{{"index_add", add}, {"build", add.Children[0]}} {
		ps := snap.Phases[c.phase]
		if ps.Count != 1 || ps.TotalNs != c.span.DurNs && !(ps.TotalNs == 0 && c.span.DurNs == 1) {
			t.Fatalf("%s: phase %+v, span dur %d — want one observation of the span's duration", c.phase, ps, c.span.DurNs)
		}
	}
	if snap.Phases["wal_append"].Count != 1 || len(snap.Spans.Children) != 1 {
		t.Fatal("a nil-parent span must time its phase without opening a trace span")
	}
	if base.Snapshot().Phases["index_add"].Count != 1 {
		t.Fatal("the trace's base recorder missed the phase")
	}

	// Untraced: ctx comes back unchanged and the base recorder is used.
	plain := context.Background()
	got, rec2, sp2 := Start(plain, base, PhaseIndexAdd)
	sp2.End()
	if got != plain || rec2 != base || sp2.TraceSpan() != nil {
		t.Fatal("untraced Start must return ctx and base unchanged, with no trace span")
	}
	if RecorderFor(ctx, base) != tr.Recorder() || RecorderFor(plain, base) != base {
		t.Fatal("RecorderFor must prefer the trace's recorder")
	}
}
