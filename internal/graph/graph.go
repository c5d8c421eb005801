// Package graph provides the undirected simple-graph substrate used by the
// whole system: an immutable CSR (compressed sparse row) representation,
// builders, induced subgraphs, permutation application, connected
// components, and the summary statistics reported in Tables 1 and 2 of the
// paper.
//
// Graphs are undirected, without self-loops or multi-edges, exactly as in
// Section 2 of the paper. Vertices are 0-based integers.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected simple graph in CSR form.
type Graph struct {
	offsets []int32 // len n+1
	adj     []int32 // len 2m, each neighbor list sorted ascending
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are silently dropped, matching the dataset preprocessing
// described in Section 7 of the paper.
type Builder struct {
	n     int
	edges []uint64 // u<<32 | v with u < v
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
// It panics if u or v is out of range; edge input is programmer-controlled
// in every call site, so a bad vertex is a bug, not an input error.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// Build finalizes the builder into an immutable Graph. One sort orders
// the packed edges by (u, v), so row x receives all its lower neighbours
// (edges whose first endpoint is below x) before any of its higher ones,
// each group in ascending order: every row comes out sorted.
func (b *Builder) Build() *Graph {
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	// offsets[x] counts row x's entries, then, summed, marks the row's
	// end. Filling each row from its end while walking the edges
	// backwards leaves offsets[x] at the row's start.
	offsets := make([]int32, b.n+1)
	for _, e := range b.edges {
		offsets[e>>32]++
		offsets[e&0xffffffff]++
	}
	for x := 1; x <= b.n; x++ {
		offsets[x] += offsets[x-1]
	}
	adj := make([]int32, offsets[b.n])
	for i := len(b.edges) - 1; i >= 0; i-- {
		u, v := int32(b.edges[i]>>32), int32(b.edges[i])
		offsets[u]--
		adj[offsets[u]] = v
		offsets[v]--
		adj[offsets[v]] = u
	}
	return &Graph{offsets: offsets, adj: adj}
}

// FromCSR wraps prebuilt CSR arrays as a Graph value without copying or
// validating. offsets must have length n+1 with offsets[0] == 0 and each
// row sorted ascending and mirror-consistent — exactly what InduceOffsets
// and InduceAdj produce. The caller owns the arrays: the graph is valid
// only while they stay alive and unmodified (arena-backed graphs become
// invalid when their arena frame is released; use Clone to promote one).
func FromCSR(offsets, adj []int32) Graph {
	return Graph{offsets: offsets, adj: adj}
}

// Clone returns a self-contained copy of g with fresh backing arrays,
// promoting an arena-backed view to an ordinary heap graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: append([]int32(nil), g.offsets...),
		adj:     append([]int32(nil), g.adj...),
	}
}

var k1 = &Graph{offsets: []int32{0, 0}}

// K1 returns the one-vertex empty graph. It is a shared immutable
// instance so callers that materialize many singleton subgraphs do not
// allocate one each.
func K1() *Graph { return k1 }

// InduceOffsets computes the CSR offsets of the subgraph of g induced by
// verts, writing them into offsets (length len(verts)+1) and returning
// the induced adjacency length. verts must be ascending; idx is the
// membership table: idx[v] == local index+1 for exactly the vertices in
// verts and 0 everywhere else (the caller builds it and restores it to
// zero afterwards — typically engine.Workspace.LocalIdx).
func (g *Graph) InduceOffsets(verts []int32, idx []int32, offsets []int32) int {
	off := int32(0)
	offsets[0] = 0
	for i, v := range verts {
		for _, w := range g.neighbors32(int(v)) {
			if idx[w] != 0 {
				off++
			}
		}
		offsets[i+1] = off
	}
	return int(off)
}

// InduceAdj fills adj (sized by InduceOffsets' return value) with the
// induced adjacency, relabeled to local indices. Because verts is
// ascending, the index map is monotone and every induced row comes out
// sorted without any per-row sort — the property the whole arena build
// path relies on.
func (g *Graph) InduceAdj(verts []int32, idx []int32, adj []int32) {
	p := 0
	for _, v := range verts {
		for _, w := range g.neighbors32(int(v)) {
			if j := idx[w]; j != 0 {
				adj[p] = j - 1
				p++
			}
		}
	}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

func (g *Graph) neighbors32(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns d(v) = |N(v)|.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors calls fn for each neighbor of v in ascending order.
func (g *Graph) Neighbors(v int, fn func(w int)) {
	for _, w := range g.neighbors32(v) {
		fn(int(w))
	}
}

// Neighbors32 returns the sorted neighbor list of v as a zero-copy view
// of the graph's adjacency array. The caller must not modify it. The
// refinement hot loop uses this to iterate adjacency without a callback.
func (g *Graph) Neighbors32(v int) []int32 {
	return g.neighbors32(v)
}

// NeighborSlice returns the sorted neighbor list of v as a fresh []int.
func (g *Graph) NeighborSlice(v int) []int {
	nb := g.neighbors32(v)
	out := make([]int, len(nb))
	for i, w := range nb {
		out[i] = int(w)
	}
	return out
}

// HasEdge reports whether (u, v) ∈ E using binary search over the shorter
// adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.neighbors32(u)
	t := int32(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= t })
	return i < len(nb) && nb[i] == t
}

// Edges returns the sorted list of edges (u < v).
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, w := range g.neighbors32(u) {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// MaxDegree returns d_max.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns d_avg = 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(2*g.M()) / float64(g.N())
}

// Permute returns Gᵞ: vertex v of g becomes vertex gamma[v]. gamma must be
// a bijection on {0,…,n−1}.
func (g *Graph) Permute(gamma []int) *Graph {
	if len(gamma) != g.N() {
		panic("graph: permutation length mismatch")
	}
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(gamma[e[0]], gamma[e[1]])
	}
	return b.Build()
}

// Equal reports whether g and h are the same labeled graph.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	if len(g.offsets) != len(h.offsets) || len(g.adj) != len(h.adj) {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// InducedSubgraph returns the subgraph of g induced by vs, together with
// the mapping back to g: local vertex i corresponds to original vertex
// orig[i]. vs need not be sorted; orig is sorted ascending.
func (g *Graph) InducedSubgraph(vs []int) (sub *Graph, orig []int) {
	orig = append([]int(nil), vs...)
	sort.Ints(orig)
	local := make(map[int]int, len(orig))
	for i, v := range orig {
		local[v] = i
	}
	b := NewBuilder(len(orig))
	for i, v := range orig {
		g.Neighbors(v, func(w int) {
			if j, ok := local[w]; ok && j > i {
				b.AddEdge(i, j)
			}
		})
	}
	return b.Build(), orig
}

// ConnectedComponents returns the vertex sets of the connected components
// of g, each sorted ascending, ordered by their minimum vertex.
func (g *Graph) ConnectedComponents() [][]int {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int32, 0, 64)
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp[s] = id
		queue = append(queue[:0], int32(s))
		members := []int{s}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.neighbors32(int(v)) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
					members = append(members, int(w))
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// Stats holds the per-graph summary columns of Tables 1 and 2.
type Stats struct {
	N, M   int
	MaxDeg int
	AvgDeg float64
}

// Summary computes the |V|, |E|, d_max, d_avg columns of Tables 1 and 2.
func (g *Graph) Summary() Stats {
	return Stats{N: g.N(), M: g.M(), MaxDeg: g.MaxDegree(), AvgDeg: g.AvgDegree()}
}
