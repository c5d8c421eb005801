package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"dvicl/internal/obs"
)

// spanNames flattens a span tree into a name → count multiset.
func spanNames(s obs.SpanSnapshot, into map[string]int) {
	into[s.Name]++
	for _, c := range s.Children {
		spanNames(c, into)
	}
}

// TestTracedBuildSpanTree drives a real build under a request trace and
// checks the tentpole contract: the trace carries a hierarchical span
// tree (build → refine → divide/leaf searches), per-request counter
// deltas, and every observation also landed in the base recorder.
func TestTracedBuildSpanTree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randGraph(r, 60, 3)

	base := obs.New()
	tr := obs.NewTrace("req-test", base)
	ctx := obs.WithTrace(context.Background(), tr)
	tree, err := BuildCtx(ctx, g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Root().End()

	snap := tr.Snapshot()
	names := map[string]int{}
	spanNames(snap.Spans, names)
	if names["build"] != 1 {
		t.Fatalf("want exactly one build span, got %d (tree: %v)", names["build"], names)
	}
	if names["refine"] == 0 {
		t.Fatalf("no refine span under build: %v", names)
	}
	if names["divide_i"]+names["divide_s"]+names["combine_cl"]+names["twins"] == 0 {
		t.Fatalf("no divide/leaf/twins spans recorded: %v", names)
	}

	// The build span carries the graph size.
	var build obs.SpanSnapshot
	for _, c := range snap.Spans.Children {
		if c.Name == "build" {
			build = c
		}
	}
	if build.Attrs["n"] != int64(g.N()) || build.Attrs["m"] != int64(g.M()) {
		t.Fatalf("build span attrs = %v, want n=%d m=%d", build.Attrs, g.N(), g.M())
	}
	if build.Running || build.DurNs < 1 {
		t.Fatalf("build span not properly ended: %+v", build)
	}

	// Per-request counter deltas match the work the tree reports, and the
	// same observations were forwarded to the base recorder.
	s := tree.Stats()
	if snap.Counters["refine_calls"] == 0 {
		t.Fatal("trace has no refine_calls delta")
	}
	if got := snap.Counters["search_nodes"]; got != s.LeafSearchNodes {
		t.Fatalf("trace search_nodes = %d, Stats.LeafSearchNodes = %d", got, s.LeafSearchNodes)
	}
	if got := base.Counter(obs.SearchNodes); got != s.LeafSearchNodes {
		t.Fatalf("base search_nodes = %d, want %d (forwarding lost observations)", got, s.LeafSearchNodes)
	}
	if base.Counter(obs.RefineCalls) != snap.Counters["refine_calls"] {
		t.Fatalf("base refine_calls %d != trace delta %d",
			base.Counter(obs.RefineCalls), snap.Counters["refine_calls"])
	}
	if ps, ok := snap.Phases["build"]; !ok || ps.Count != 1 {
		t.Fatalf("trace build phase = %+v, want one span", snap.Phases["build"])
	}
}

// TestTracedBuildIdenticalCert is the acceptance criterion: tracing must
// be purely observational — certificates are byte-identical with a
// trace, with a plain recorder, and with nothing at all, sequential or
// parallel.
func TestTracedBuildIdenticalCert(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(r, 40+10*trial, 3)
		plain := Build(g, nil, Options{})
		want := plain.CanonicalCert()

		for _, workers := range []int{0, 4} {
			tr := obs.NewTrace("t", obs.New())
			ctx := obs.WithTrace(context.Background(), tr)
			traced, err := BuildCtx(ctx, g, nil, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, traced.CanonicalCert()) {
				t.Fatalf("trial %d workers %d: tracing changed the certificate", trial, workers)
			}
			if plain.Stats() != traced.Stats() {
				t.Fatalf("trial %d workers %d: tracing changed Stats: %+v vs %+v",
					trial, workers, plain.Stats(), traced.Stats())
			}
		}
	}
}

// TestUntracedCtxBuildNoTraceCost: BuildCtx without a trace in ctx keeps
// opt.Obs untouched and records no spans anywhere (the nil-trace no-op
// path at every call site).
func TestUntracedCtxBuildNoTraceCost(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randGraph(r, 40, 3)
	rec := obs.New()
	if _, err := BuildCtx(context.Background(), g, nil, Options{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Counter(obs.RefineCalls) == 0 {
		t.Fatal("explicit Options.Obs must still record when no trace is present")
	}
}
