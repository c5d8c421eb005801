package coloring

import (
	"testing"

	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// refineInWorkspace runs RefineWS with a recorder in a pooled workspace.
func refineInWorkspace(t *testing.T, c *Coloring, g *graph.Graph, rec *obs.Recorder) {
	t.Helper()
	w := engine.GetWorkspace(c.N())
	defer engine.PutWorkspace(w)
	if err := c.RefineWS(g, nil, w, nil, rec); err != nil {
		t.Fatal(err)
	}
}

// TestRefineObservedMatchesRefine: the instrumented entry point (RefineWS
// with a recorder) must produce the same final coloring as the plain
// one, and report the work it did.
func TestRefineObservedMatchesRefine(t *testing.T) {
	// A path P5 refines the unit coloring to discrete-ish cells.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})

	plain := Unit(5)
	plain.Refine(g, nil)

	rec := obs.New()
	observed := Unit(5)
	refineInWorkspace(t, observed, g, rec)

	if plain.String() != observed.String() {
		t.Fatalf("colorings differ: %v vs %v", plain, observed)
	}
	if got := rec.Counter(obs.RefineCalls); got != 1 {
		t.Fatalf("refine_calls = %d, want 1", got)
	}
	if rec.Counter(obs.RefineRounds) == 0 {
		t.Fatal("no refinement rounds recorded")
	}
	// Unit → 3 cells on P5 means at least two splits happened.
	if got := rec.Counter(obs.CellSplits); got < 2 {
		t.Fatalf("cell_splits = %d, want >= 2", got)
	}

	// A nil recorder is fine too.
	again := Unit(5)
	refineInWorkspace(t, again, g, nil)
	if again.String() != plain.String() {
		t.Fatalf("nil-recorder coloring differs: %v vs %v", again, plain)
	}
}

// TestRefineObservedNoSplit: refining an already-equitable coloring of a
// regular graph records a call and rounds but no splits.
func TestRefineObservedNoSplit(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}) // C4, regular
	rec := obs.New()
	c := Unit(4)
	refineInWorkspace(t, c, g, rec)
	if got := rec.Counter(obs.CellSplits); got != 0 {
		t.Fatalf("cell_splits = %d on a regular graph, want 0", got)
	}
	if got := rec.Counter(obs.RefineCalls); got != 1 {
		t.Fatalf("refine_calls = %d, want 1", got)
	}
}
