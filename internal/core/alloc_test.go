package core

import (
	"testing"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// Build-path allocation benchmarks: one whole AutoTree build per op on
// the two divide-heavy perfbench families (quick sizes). Run with
// -benchmem; results/BUILD_ALLOCS.md records the before/after of the
// PR 9 arena refactor.
func benchmarkBuildAllocs(b *testing.B, g *graph.Graph) {
	// Warm the engine workspace pool so rep 1 is not an outlier.
	Build(g, nil, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, nil, Options{})
	}
}

func BenchmarkBuildAllocsCFI(b *testing.B) {
	benchmarkBuildAllocs(b, gen.CFI(gen.RigidCubic(60, 41), false))
}

func BenchmarkBuildAllocsGridW(b *testing.B) {
	benchmarkBuildAllocs(b, gen.GridW(3, 10))
}

// TestBuildAllocCeiling is the allocation-regression guard for the arena
// build path, in the style of obs's TestNilInstrumentationAllocFree: a
// steady-state Build must stay under a pinned allocs-per-op ceiling, or
// the pooled-workspace/slab/arena machinery has sprung a leak back to
// the garbage collector. The ceilings carry ~2x headroom over the
// measured values at the time of pinning (grid-w ≈ 240, leaf-search
// dominated; pendant cycle ≈ 175, divide dominated — the remaining
// allocs are the per-internal-node children slices) so they trip on
// structural regressions — a per-node or per-candidate allocation
// reappearing — not on noise. CI runs this in the perfbench job.
func TestBuildAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc ceiling is a perf guard; skipped in -short")
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		ceiling float64
	}{
		// Leaf-search heavy: one non-dividing torus leaf per build.
		{"grid-w-3-10", gen.GridW(3, 10), 500},
		// Divide heavy: a cycle with a pendant divides to singletons.
		{"cycle-pendant", pendantCycle(64), 350},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			Build(tc.g, nil, Options{}) // warm the workspace pool
			allocs := testing.AllocsPerRun(5, func() {
				Build(tc.g, nil, Options{})
			})
			if allocs > tc.ceiling {
				t.Fatalf("Build allocates %.0f times per op, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

// socialLoadGraph is a 1,000-vertex social-graph stand-in, the shape
// the tree store loads most.
func socialLoadGraph() *graph.Graph {
	return gen.Social(gen.SocialConfig{
		Name: "load-allocs", N: 1000, M: 3500,
		TwinFrac: 0.12, PendantFrac: 0.18, Seed: 1000,
	})
}

// BenchmarkLoadAllocs decodes one tree record per op.
func BenchmarkLoadAllocs(b *testing.B) {
	g := socialLoadGraph()
	data := Build(g, nil, Options{}).Save()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(data, g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocCeiling is the same guard for the load path: decoding a
// tree record carves nodes, vertex lists, labels and certificates from
// the slab, so allocations grow with the slab's chunks, the internal
// nodes' children slices and the generators collectGens rebuilds, not
// with every field. The ceiling carries ~2x headroom over the measured
// value at the time of pinning (about 1,200 on the 1,000-vertex social
// tree, nine in ten of them collectGens's sibling swaps).
func TestLoadAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc ceiling is a perf guard; skipped in -short")
	}
	g := socialLoadGraph()
	data := Build(g, nil, Options{}).Save()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load(data, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2400 {
		t.Fatalf("Load allocates %.0f times per op, ceiling 2400", allocs)
	}
}

// pendantCycle returns an n-cycle with one pendant vertex: the pendant
// breaks the symmetry so DivideI recurses the whole ring down to
// singletons — the pure divide/combine path with no leaf search.
func pendantCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n + 1)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	b.AddEdge(0, n)
	return b.Build()
}
