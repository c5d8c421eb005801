package core

import (
	"bytes"
	"testing"

	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
)

// newTestBuilder prepares a builder over g with its equitable coloring,
// mirroring Build's setup, plus the worker the divides run on.
func newTestBuilder(g *graph.Graph) (*builder, *worker) {
	n := g.N()
	pi := coloring.Unit(n)
	pi.Refine(g, nil)
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = pi.Color(v)
	}
	t := &Tree{g: g, colors: colors}
	return &builder{t: t}, &worker{ws: engine.GetWorkspace(n)}
}

func allVerts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestDivideIIsolatesSingletons(t *testing.T) {
	// Fig 1(a): the hub (vertex 7) is the only singleton cell; removing
	// it separates the C4 from the triangle.
	g := fig1()
	b, wk := newTestBuilder(g)
	sg := b.subgraphOf(allVerts(8), wk)
	div, ok := b.divideI(sg, wk)
	if !ok {
		t.Fatal("DivideI failed on the paper's example")
	}
	if div.kind != DividedI {
		t.Fatal("wrong divide kind")
	}
	// Children: {7}, {0,1,2,3}, {4,5,6}.
	if len(div.children) != 3 {
		t.Fatalf("children = %d, want 3", len(div.children))
	}
	sizes := map[int]int{}
	for _, c := range div.children {
		sizes[c.size()]++
	}
	if sizes[1] != 1 || sizes[4] != 1 || sizes[3] != 1 {
		t.Fatalf("child sizes = %v", sizes)
	}
	if len(div.desc) == 0 {
		t.Fatal("empty DivideI descriptor")
	}
}

func TestDivideIFailsWithoutSingletons(t *testing.T) {
	// A cycle: unit cell, connected — DivideI cannot disconnect it.
	g := cycle(8)
	b, wk := newTestBuilder(g)
	if div, ok := b.divideI(b.subgraphOf(allVerts(8), wk), wk); ok {
		t.Fatalf("DivideI divided a vertex-transitive cycle: %d children", len(div.children))
	}
}

func TestDivideIComponentsOnly(t *testing.T) {
	// Two disjoint C4s: no singleton cells, but two components.
	g := graph.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
	})
	b, wk := newTestBuilder(g)
	div, ok := b.divideI(b.subgraphOf(allVerts(8), wk), wk)
	if !ok || len(div.children) != 2 {
		t.Fatalf("disconnected graph not split: ok=%v %+v", ok, div)
	}
}

func TestDivideSCliqueRemoval(t *testing.T) {
	// K4 with a pendant on each vertex: refinement gives two cells
	// (clique vertices, pendants). The clique cell induces K4, so DivideS
	// removes it and the graph splits into 4 pendant edges.
	var edges [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int{i, j})
		}
		edges = append(edges, [2]int{i, 4 + i})
	}
	g := graph.FromEdges(8, edges)
	b, wk := newTestBuilder(g)
	sg := b.subgraphOf(allVerts(8), wk)
	if _, ok := b.divideI(sg, wk); ok {
		t.Fatal("DivideI should not apply (no singleton cells)")
	}
	div, ok := b.divideS(sg, wk)
	if !ok {
		t.Fatal("DivideS failed on clique-cell graph")
	}
	if len(div.children) != 4 {
		t.Fatalf("children = %d, want 4 pendant edges", len(div.children))
	}
	for _, ref := range div.children {
		c := ref.materialize(wk)
		if len(c.verts) != 2 || c.local.M() != 1 {
			t.Fatalf("child = %v with %d edges", c.verts, c.local.M())
		}
	}
}

func TestDivideSBicliqueRemoval(t *testing.T) {
	// Two triangles joined by a complete bipartite K3,3 between their
	// vertex sets... refinement keeps one cell (6-vertex, 5-regular =
	// K3,3 plus triangles = K6 minus a perfect... construct explicitly:
	// cells A={0,1,2}, B={3,4,5} where A and B are triangles and A×B is
	// complete. That's K6 — one cell, clique removal splits everything.
	// Instead: A = triangle, B = independent set, A×B complete. Degrees:
	// A: 2+3=5, B: 3 — two cells; A×B is a biclique, A is a clique.
	var edges [][2]int
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			edges = append(edges, [2]int{i, j})
		}
		for j := 3; j < 6; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g := graph.FromEdges(6, edges)
	b, wk := newTestBuilder(g)
	sg := b.subgraphOf(allVerts(6), wk)
	div, ok := b.divideS(sg, wk)
	if !ok {
		t.Fatal("DivideS failed on clique+biclique structure")
	}
	// Everything falls apart into 6 singletons.
	if len(div.children) != 6 {
		t.Fatalf("children = %d, want 6", len(div.children))
	}
}

func TestDivideSNoOpOnCycle(t *testing.T) {
	g := cycle(10)
	b, wk := newTestBuilder(g)
	if _, ok := b.divideS(b.subgraphOf(allVerts(10), wk), wk); ok {
		t.Fatal("DivideS divided a cycle (no complete structures)")
	}
}

// TestDescriptorInvariance: two isomorphic subgraph configurations must
// produce identical descriptors (the property that certificate equality
// of internal nodes relies on).
func TestDescriptorInvariance(t *testing.T) {
	g := fig1()
	b1, wk1 := newTestBuilder(g)
	d1, ok1 := b1.divideI(b1.subgraphOf(allVerts(8), wk1), wk1)

	perm := []int{3, 0, 1, 2, 5, 6, 4, 7} // an automorphism-ish relabeling
	h := g.Permute(perm)
	b2, wk2 := newTestBuilder(h)
	d2, ok2 := b2.divideI(b2.subgraphOf(allVerts(8), wk2), wk2)
	if !ok1 || !ok2 {
		t.Fatal("divides failed")
	}
	if !bytes.Equal(d1.desc, d2.desc) {
		t.Fatal("DivideI descriptors differ across a relabeling")
	}
}

// TestDivideWorkspaceInvariants: the divides must leave the workspace in
// its documented between-uses state so the next consumer can rely on it.
func TestDivideWorkspaceInvariants(t *testing.T) {
	for _, build := range []func() *graph.Graph{fig1, func() *graph.Graph { return cycle(8) }} {
		g := build()
		b, wk := newTestBuilder(g)
		mark := wk.ws.Arena.Mark()
		sg := b.subgraphOf(allVerts(g.N()), wk)
		b.divideI(sg, wk)
		b.divideS(sg, wk)
		wk.ws.Arena.Release(mark)
		ws := wk.ws
		for v := 0; v < g.N(); v++ {
			if ws.LocalIdx[v] != 0 {
				t.Fatalf("LocalIdx[%d] = %d after divide", v, ws.LocalIdx[v])
			}
			if ws.ColorCount[v] != 0 {
				t.Fatalf("ColorCount[%d] = %d after divide", v, ws.ColorCount[v])
			}
			if ws.Bits[v] {
				t.Fatalf("Bits[%d] set after divide", v)
			}
		}
		if len(ws.IntsA)+len(ws.IntsB)+len(ws.IntsC)+len(ws.Keys)+len(ws.Bytes) != 0 {
			t.Fatal("list buffers not reset to length 0 after divide")
		}
		if len(ws.PairCount) != 0 {
			t.Fatal("PairCount not empty after divide")
		}
	}
}
