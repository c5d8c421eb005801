package obs

import (
	"context"
	"testing"
	"time"
)

// TestNilInstrumentationAllocFree is the benchmark-guard in test form:
// the disabled-observability path (nil Recorder, nil Trace, untraced
// context) must never allocate, or the "tracing is free when off"
// contract — and every hot loop relying on it — quietly breaks. CI runs
// this under plain `go test`; the companion benchmarks report the same
// paths with -benchmem for humans.
func TestNilInstrumentationAllocFree(t *testing.T) {
	var r *Recorder
	var tr *Trace
	var span *TraceSpan
	ctx := context.Background()
	live := New() // an enabled recorder on an untraced ctx times without allocating

	cases := []struct {
		name string
		fn   func()
	}{
		{"Recorder.Inc", func() { r.Inc(SearchNodes) }},
		{"Recorder.Add", func() { r.Add(SearchLeaves, 3) }},
		{"Recorder.ObservePhase", func() { r.ObservePhase(PhaseBuild, time.Millisecond) }},
		{"StartUnder+End", func() { StartUnder(r, nil, PhaseRefine).End() }},
		{"Start+End", func() {
			_, rec, sp := Start(ctx, r, PhaseRefine)
			rec.Inc(SearchNodes)
			sp.SetAttr("k", 1)
			sp.End()
		}},
		{"StartEnabled+End", func() {
			_, _, sp := Start(ctx, live, PhaseRefine)
			sp.End()
		}},
		{"RecorderFor", func() { _ = RecorderFor(ctx, r) }},
		{"Recorder.Merge", func() { r.Merge(nil) }},
		{"Trace.StartSpan", func() { _ = tr.StartSpan(nil, "x") }},
		{"Trace.Recorder", func() { _ = tr.Recorder() }},
		{"Trace.Root", func() { _ = tr.Root() }},
		{"Span.End", func() { span.End() }},
		{"Span.SetAttr", func() { span.SetAttr("k", 1) }},
		{"Span.Child", func() { _ = span.Child("y") }},
		{"TraceFrom", func() { _ = TraceFrom(ctx) }},
		{"SpanFrom", func() { _ = SpanFrom(ctx) }},
		{"DetachTrace", func() { _ = DetachTrace(ctx) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
				t.Fatalf("%s on the nil/disabled path allocates %.1f times per op, want 0", tc.name, allocs)
			}
		})
	}
}

func BenchmarkNilRecorderInc(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc(SearchNodes)
	}
}

func BenchmarkNilStartUnder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartUnder(r, nil, PhaseBuild).End()
	}
}

func BenchmarkUntracedStart(b *testing.B) {
	ctx := context.Background()
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, sp := Start(ctx, r, PhaseBuild)
		sp.End()
	}
}

func BenchmarkNilTraceStartSpan(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpan(nil, "build")
		s.SetAttr("n", 1)
		s.End()
	}
}

func BenchmarkUntracedContextLookup(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TraceFrom(ctx)
		_ = SpanFrom(ctx)
	}
}

func BenchmarkEnabledRecorderInc(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc(SearchNodes)
	}
}

func BenchmarkForwardingRecorderInc(b *testing.B) {
	r := NewForwarding(New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc(SearchNodes)
	}
}
