package dvicl

import (
	"context"
	"testing"

	"dvicl/internal/core"
	"dvicl/internal/gen"
	"dvicl/internal/obs"
)

// spanlessPhases are timed without a trace span: too frequent or too
// detached from the request to trace (obs.StartUnder with a nil parent).
var spanlessPhases = map[string]bool{
	"worker_busy":       true,
	"wal_append":        true,
	"treestore_load":    true,
	"treestore_persist": true,
	"http_request":      true,
}

// countSpans flattens a span tree below the root into a name → count
// multiset.
func countSpans(s obs.SpanSnapshot, into map[string]int64) {
	for _, c := range s.Children {
		into[c.Name]++
		countSpans(c, into)
	}
}

// checkOneSpanPerPhase asserts the single-instrumentation invariant on a
// finished trace: every span below the root "request" is named after a
// phase, and every phase the trace timed has exactly as many spans as
// observations (none, for the span-less phases).
func checkOneSpanPerPhase(t *testing.T, tr *obs.Trace) map[string]int64 {
	t.Helper()
	snap := tr.Snapshot()
	if snap.DroppedSpans != 0 {
		t.Fatalf("trace dropped %d spans; raise the cap for this check", snap.DroppedSpans)
	}
	isPhase := map[string]bool{}
	for p := obs.Phase(0); p.String() != "unknown_phase"; p++ {
		isPhase[p.String()] = true
	}
	spans := map[string]int64{}
	countSpans(snap.Spans, spans)
	for name := range spans {
		if !isPhase[name] {
			t.Errorf("span %q is not a phase name", name)
		}
	}
	for name, ps := range snap.Phases {
		want := ps.Count
		if spanlessPhases[name] {
			want = 0
		}
		if spans[name] != want {
			t.Errorf("phase %s: %d observations, %d spans (want %d)", name, ps.Count, spans[name], want)
		}
	}
	for name, n := range spans {
		if _, ok := snap.Phases[name]; !ok {
			t.Errorf("%d %s spans but no %s phase observation", n, name, name)
		}
	}
	return spans
}

// invariantGraph exercises every build layer: a CFI component needs the
// leaf search, the star's leaves are a whole-class twin set, and the
// divides split the union.
func invariantGraph() *Graph {
	star := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	k33 := FromEdges(6, [][2]int{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}})
	return gen.DisjointUnion(gen.CFI(gen.RigidCubic(8, 0), false), star, k33)
}

func TestOneSpanPerPhaseBuild(t *testing.T) {
	for _, workers := range []int{0, 2} {
		tr := obs.NewTrace("build", obs.New())
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := core.BuildCtx(ctx, invariantGraph(), nil, core.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		spans := checkOneSpanPerPhase(t, tr)
		for _, want := range []string{"build", "refine", "twins", "divide_i", "divide_s", "combine_cl", "combine_st"} {
			if spans[want] == 0 {
				t.Errorf("workers %d: no %s span; the test graph no longer exercises that layer (%v)", workers, want, spans)
			}
		}
	}
}

func TestOneSpanPerPhaseAdd(t *testing.T) {
	ix, err := OpenGraphIndex(t.TempDir(), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	tr := obs.NewTrace("add", nil)
	if _, _, err := ix.AddCtx(obs.WithTrace(context.Background(), tr), invariantGraph()); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	spans := checkOneSpanPerPhase(t, tr)
	if spans["index_add"] != 1 || spans["build"] != 1 {
		t.Fatalf("want one index_add and one build span, got %v", spans)
	}
	if tr.Snapshot().Phases["wal_append"].Count != 1 {
		t.Fatal("durable Add recorded no wal_append phase")
	}
}

func TestOneSpanPerPhaseOrbits(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenGraphIndex(dir, IndexOptions{TreeStore: &TreeStoreOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := ix.Add(invariantGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened, the tree is cold: the first query loads it from disk.
	ix, err = OpenGraphIndex(dir, IndexOptions{TreeStore: &TreeStoreOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, path := range []string{"disk", "memory"} {
		tr := obs.NewTrace("orbits", nil)
		if _, err := ix.OrbitsCtx(obs.WithTrace(context.Background(), tr), id); err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		spans := checkOneSpanPerPhase(t, tr)
		if spans["symmetry_query"] != 1 {
			t.Fatalf("%s path: want one symmetry_query span, got %v", path, spans)
		}
		if path == "disk" && tr.Snapshot().Phases["treestore_load"].Count != 1 {
			t.Fatal("cold query did not load the tree from disk")
		}
	}

	// Without a tree store every query rebuilds: the build's spans nest
	// under the query's.
	plain := NewGraphIndex(Options{})
	id, _, err = plain.Add(invariantGraph())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("orbits", nil)
	if _, err := plain.OrbitsCtx(obs.WithTrace(context.Background(), tr), id); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	if spans := checkOneSpanPerPhase(t, tr); spans["build"] != 1 {
		t.Fatalf("rebuild path: want one build span, got %v", spans)
	}
}
