package coloring

import (
	"slices"
	"testing"

	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/obs"
)

// BenchmarkRefineAllocs measures steady-state refinement in a held
// workspace — the configuration every hot loop (canon search, core
// build, pipeline workers) runs in. It must report 0 allocs/op
// (TestRefineAllocFree enforces it); the before/after record lives in
// results/ENGINE_REFINE_ALLOCS.md.
func BenchmarkRefineAllocs(b *testing.B) {
	g := gen.RigidCubic(512, 1)
	base := Unit(g.N())
	work := base.Clone()
	w := engine.GetWorkspace(g.N())
	defer engine.PutWorkspace(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copyColoring(work, base)
		if err := work.RefineWS(g, nil, w, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRefineAllocFree is BenchmarkRefineAllocs' promise as a gate: in a
// warm workspace neither a refinement from scratch nor a search child's
// refinement compared with First and Best references allocates.
func TestRefineAllocFree(t *testing.T) {
	g := gen.CFI(gen.RigidCubic(60, 41), false)
	n := g.N()
	w := engine.GetWorkspace(n)
	defer engine.PutWorkspace(w)
	rec := obs.New()
	base := Unit(n)
	work := base.Clone()
	if allocs := testing.AllocsPerRun(20, func() {
		copyColoring(work, base)
		if err := work.RefineWS(g, nil, w, nil, rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RefineWS from scratch: %v allocs/op, want 0", allocs)
	}

	root := work.Clone()
	start := -1
	for s := 0; s < n; s = root.CellEnd(s) {
		if root.CellEnd(s)-s > 1 {
			start = s
			break
		}
	}
	if start < 0 {
		t.Fatal("CFI-60 refines to a discrete coloring; pick another graph")
	}
	var seed [2]int
	var vals []uint64
	refine := func(v int, refs *Refs) Verdict {
		copyColoring(work, root)
		seed[0], seed[1] = work.Individualize(v)
		vals = vals[:0]
		verdict, err := work.RefineSearch(g, seed[:], w, nil, rec, &vals, refs)
		if err != nil {
			t.Fatal(err)
		}
		return verdict
	}
	first, second := root.LabAt(start), root.LabAt(start+1)
	refine(first, nil)
	refs := &Refs{First: slices.Clone(vals)}
	refine(second, nil)
	refs.Best = slices.Clone(vals)
	if allocs := testing.AllocsPerRun(20, func() {
		if v := refine(second, refs); v.Aborted || v.Best != 0 {
			t.Fatalf("child refined against its own trace: verdict %+v", v)
		}
	}); allocs != 0 {
		t.Errorf("RefineSearch of a CFI-60 child: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRefinePooled measures the legacy Refine entry point, which
// draws its workspace from the engine pool per call — the compatibility
// path's steady-state cost.
func BenchmarkRefinePooled(b *testing.B) {
	g := gen.RigidCubic(512, 1)
	base := Unit(g.N())
	work := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copyColoring(work, base)
		work.Refine(g, nil)
	}
}

func copyColoring(dst, src *Coloring) {
	copy(dst.lab, src.lab)
	copy(dst.pos, src.pos)
	copy(dst.cs, src.cs)
	copy(dst.ce, src.ce)
	dst.nc = src.nc
}
