package core

import (
	"slices"

	"dvicl/internal/engine"
	"dvicl/internal/graph"
)

// subgraph is a working colored subgraph (g, πg) during construction:
// local vertex i of the (possibly edge-reduced) graph corresponds to the
// original vertex verts[i]. The projected coloring πg is implicit — it is
// the global color array restricted to verts (Theorem 6.1).
//
// Memory: verts is slab-backed (it becomes Node.Verts and outlives the
// build); local is an arena-backed CSR view owned by the divide frame
// that produced it — valid until that frame's Arena mark is released,
// which cl does only after the whole subtree is built. Leaves that keep
// their local graph promote it first (combineCL).
type subgraph struct {
	verts []int // sorted original ids
	local *graph.Graph
}

type builder struct {
	t   *Tree
	opt Options
	// ctl enforces opt.Budget's whole-build bounds plus context
	// cancellation; nil for unbudgeted, uncancelable builds.
	ctl *engine.Ctl
	// sched is the build's work-stealing worker pool (nil when
	// sequential); see sched.go.
	sched *sched
}

// subgraphOf induces the subgraph of the original graph on verts, with
// the CSR in the worker's arena (caller owns the frame) and verts in the
// slab.
func (b *builder) subgraphOf(verts []int, wk *worker) *subgraph {
	sorted := wk.slab.intSlice(len(verts))
	copy(sorted, verts)
	slices.Sort(sorted)
	ws := wk.ws
	idx := ws.LocalIdx
	v32 := ws.Arena.Alloc(len(sorted))
	for i, v := range sorted {
		idx[v] = int32(i) + 1
		v32[i] = int32(v)
	}
	offsets := ws.Arena.Alloc(len(sorted) + 1)
	adj := ws.Arena.Alloc(b.t.g.InduceOffsets(v32, idx, offsets))
	b.t.g.InduceAdj(v32, idx, adj)
	for _, v := range sorted {
		idx[v] = 0
	}
	sg := wk.slab.sub()
	sg.verts = sorted
	sg.local = wk.slab.graph(offsets, adj)
	return sg
}

// induceChild induces a child subgraph from sg on the given ascending
// local indices, preserving sg's (possibly already reduced) edge set.
// Because locals (and sg.verts) are ascending, the induced rows come out
// sorted with no per-row sort — the monotone-index-map property of
// graph.InduceAdj.
func induceChild(sg *subgraph, locals []int32, wk *worker) *subgraph {
	ws := wk.ws
	verts := wk.slab.intSlice(len(locals))
	idx := ws.LocalIdx
	for i, l := range locals {
		verts[i] = sg.verts[l]
		idx[l] = int32(i) + 1
	}
	offsets := ws.Arena.Alloc(len(locals) + 1)
	adj := ws.Arena.Alloc(sg.local.InduceOffsets(locals, idx, offsets))
	sg.local.InduceAdj(locals, idx, adj)
	for _, l := range locals {
		idx[l] = 0
	}
	child := wk.slab.sub()
	child.verts = verts
	child.local = wk.slab.graph(offsets, adj)
	return child
}

// componentsOf labels the connected components of g, returning the
// vertices grouped by component as arena-backed segments: component k's
// members, ascending, are members[starts[k]:starts[k+1]]. Components are
// numbered by their minimum vertex, matching graph.ConnectedComponents.
func componentsOf(g *graph.Graph, ws *engine.Workspace) (members []int32, starts []int32) {
	n := g.N()
	a := &ws.Arena
	comp := a.Alloc(n)
	for i := range comp {
		comp[i] = -1
	}
	stack := a.Alloc(n)
	nc := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = nc
		stack[0] = int32(s)
		top := 1
		for top > 0 {
			top--
			v := stack[top]
			for _, w := range g.Neighbors32(int(v)) {
				if comp[w] < 0 {
					comp[w] = nc
					stack[top] = w
					top++
				}
			}
		}
		nc++
	}
	starts = a.Alloc(int(nc) + 1)
	for i := range starts {
		starts[i] = 0
	}
	for _, c := range comp {
		starts[c+1]++
	}
	for k := int32(1); k <= nc; k++ {
		starts[k] += starts[k-1]
	}
	cursor := a.Alloc(int(nc))
	copy(cursor, starts[:nc])
	members = a.Alloc(n)
	for v := 0; v < n; v++ {
		c := comp[v]
		members[cursor[c]] = int32(v)
		cursor[c]++
	}
	return members, starts
}

// colorOf returns the projected color πg(v) for local vertex l of sg,
// which equals the global color (Theorem 6.1).
func (b *builder) colorOf(sg *subgraph, l int) int {
	return b.t.colors[sg.verts[l]]
}

// cellsOf groups sg's local vertices by color, ordered by color; each
// cell's locals are ascending. The cells are views into the workspace's
// IntsA backing array: they remain valid through the enclosing
// combineCL (refinement and the leaf search do not use IntsA) but not
// across another divide/combine call — consumers copy what they keep.
func (b *builder) cellsOf(sg *subgraph, ws *engine.Workspace) [][]int {
	n := len(sg.verts)
	colors := ws.IntsB[:0]
	for l := 0; l < n; l++ {
		c := b.colorOf(sg, l)
		if ws.ColorCount[c] == 0 {
			colors = append(colors, c)
		}
		ws.ColorCount[c]++
	}
	slices.Sort(colors)
	ordered := ws.IntsA
	if cap(ordered) < n {
		ordered = make([]int, n)
	} else {
		ordered = ordered[:n]
	}
	// Cursor per color in Gamma (write-before-read), then a counting
	// pass in ascending l keeps every cell ascending.
	pos := 0
	for _, c := range colors {
		ws.Gamma[c] = pos
		pos += int(ws.ColorCount[c])
	}
	for l := 0; l < n; l++ {
		c := b.colorOf(sg, l)
		ordered[ws.Gamma[c]] = l
		ws.Gamma[c]++
	}
	cells := make([][]int, len(colors))
	p := 0
	for i, c := range colors {
		k := int(ws.ColorCount[c])
		cells[i] = ordered[p : p+k : p+k]
		p += k
		ws.ColorCount[c] = 0
	}
	ws.IntsB = colors[:0]
	ws.IntsA = ordered[:0]
	return cells
}

// childRef names one child of a division without necessarily inducing
// its subgraph yet. Singleton children are materialized eagerly (a K1
// costs two slab slots); component children stay lazy — base + the
// ascending local ids of the component — so that the induction itself
// (the CSR build, the dominant per-child cost on wide divides, the
// root's especially) runs inside the child's build task, on whichever
// worker picks it up.
//
// Lifetime: base's CSR and the locals slice live in the dividing frame's
// arena, which cl holds open until the whole child join completes —
// arena chunks are append-only and never move, so a stealing worker can
// read them concurrently with the owner allocating more.
type childRef struct {
	sg     *subgraph // non-nil: already materialized
	base   *subgraph
	locals []int32
}

// size returns the child's vertex count without materializing it.
func (r childRef) size() int {
	if r.sg != nil {
		return len(r.sg.verts)
	}
	return len(r.locals)
}

// materialize induces the child into wk's arena (caller owns the frame).
func (r childRef) materialize(wk *worker) *subgraph {
	if r.sg != nil {
		return r.sg
	}
	return induceChild(r.base, r.locals, wk)
}

// divideResult is the outcome of a successful DivideI or DivideS.
type divideResult struct {
	kind     DivideKind
	children []childRef
	// desc is the removal descriptor folded into the parent certificate:
	// it records, in color terms, exactly which edges the division
	// removed, so the certificate remains a complete isomorphism
	// invariant (see combine.go). Slab-backed: it outlives the build as
	// Node.desc.
	desc []byte
}

// divideI implements Algorithm 2: isolate every singleton cell of πg as a
// one-vertex subgraph and split the remainder into connected components.
// ok is false when the division would not produce at least two children
// (the node "cannot be disconnected by DivideI").
func (b *builder) divideI(sg *subgraph, wk *worker) (res divideResult, ok bool) {
	n := len(sg.verts)
	ws := wk.ws
	colors := ws.IntsA[:0]
	for l := 0; l < n; l++ {
		c := b.colorOf(sg, l)
		if ws.ColorCount[c] == 0 {
			colors = append(colors, c)
		}
		ws.ColorCount[c]++
	}
	singletons := ws.IntsB[:0] // local ids whose projected cell is {v}
	for l := 0; l < n; l++ {
		if ws.ColorCount[b.colorOf(sg, l)] == 1 {
			singletons = append(singletons, l)
		}
	}
	for _, c := range colors {
		ws.ColorCount[c] = 0
	}
	// ws.Bits flags the singleton locals; the singletons slice doubles as
	// the visited list that restores the all-false invariant below.
	for _, l := range singletons {
		ws.Bits[l] = true
	}
	rest := ws.Arena.Alloc(n)[:0]
	for l := 0; l < n; l++ {
		if !ws.Bits[l] {
			rest = append(rest, int32(l))
		}
	}
	for _, l := range singletons {
		ws.Bits[l] = false
	}

	children := make([]childRef, 0, len(singletons)+2)
	for _, l := range singletons {
		child := wk.slab.sub()
		verts := wk.slab.intSlice(1)
		verts[0] = sg.verts[l]
		child.verts = verts
		child.local = graph.K1()
		children = append(children, childRef{sg: child})
	}
	// Descriptor: by equitability, a singleton cell {v} is adjacent to
	// all-or-none of every other cell, so (color(v), neighbor colors)
	// reconstructs every removed edge. Entries are sorted by color —
	// singleton cells have distinct colors — so the descriptor is
	// isomorphism-invariant regardless of vertex numbering.
	keys := ws.Keys[:0]
	for _, l := range singletons {
		keys = append(keys, uint64(b.colorOf(sg, l))<<32|uint64(l))
	}
	slices.Sort(keys)
	d := newDescriptor(ws, DividedI)
	nb := ws.IntsC[:0]
	for _, key := range keys {
		l := int(key & 0xffffffff)
		nb = nb[:0]
		for _, w := range sg.local.Neighbors32(l) {
			c := b.colorOf(sg, int(w))
			if !ws.Bits[c] {
				ws.Bits[c] = true
				nb = append(nb, c)
			}
		}
		for _, c := range nb {
			ws.Bits[c] = false
		}
		slices.Sort(nb)
		d.singleton(int(key>>32), nb)
	}
	desc := wk.slab.bytesCopy(d.buf)
	ws.Bytes = d.buf[:0]
	ws.IntsA = colors[:0]
	ws.IntsB = singletons[:0]
	ws.IntsC = nb[:0]
	ws.Keys = keys[:0]

	if len(rest) > 0 {
		restSub := induceChild(sg, rest, wk)
		members, starts := componentsOf(restSub.local, ws)
		for k := 0; k+1 < len(starts); k++ {
			children = append(children, childRef{base: restSub, locals: members[starts[k]:starts[k+1]]})
		}
	}
	if len(children) < 2 {
		return divideResult{}, false
	}
	return divideResult{kind: DividedI, children: children, desc: desc}, true
}

// packPair packs an unordered color pair into a sortable uint64 key.
func packPair(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// divideS implements Algorithm 3: remove the edges of every cell that
// induces a clique and of every cell pair that forms a complete bipartite
// graph (Theorem 6.4 shows this preserves Aut(g, πg)), then split into
// connected components. ok is false if nothing was removed or the removal
// does not disconnect the subgraph.
func (b *builder) divideS(sg *subgraph, wk *worker) (res divideResult, ok bool) {
	n := len(sg.verts)
	ws := wk.ws
	colors := ws.IntsA[:0]
	for l := 0; l < n; l++ {
		c := b.colorOf(sg, l)
		if ws.ColorCount[c] == 0 {
			colors = append(colors, c)
		}
		ws.ColorCount[c]++
	}
	// Count edges per (color, color) pair.
	for l := 0; l < n; l++ {
		cl := b.colorOf(sg, l)
		for _, w := range sg.local.Neighbors32(l) {
			if int(w) < l {
				continue
			}
			ws.PairCount[packPair(cl, b.colorOf(sg, int(w)))]++
		}
	}
	// A removed pair is marked with count -1 so the rebuild loop below
	// can test membership in the same map.
	removedPairs := ws.Keys[:0]
	for p, cnt := range ws.PairCount {
		pa, pb := int(p>>32), int(p&0xffffffff)
		if pa == pb {
			k := int(ws.ColorCount[pa])
			if k >= 2 && int(cnt) == k*(k-1)/2 {
				removedPairs = append(removedPairs, p)
			}
		} else if cnt > 0 && int(cnt) == int(ws.ColorCount[pa])*int(ws.ColorCount[pb]) {
			removedPairs = append(removedPairs, p)
		}
	}
	cleanup := func() {
		for _, c := range colors {
			ws.ColorCount[c] = 0
		}
		clear(ws.PairCount)
		ws.IntsA = colors[:0]
	}
	if len(removedPairs) == 0 {
		ws.Keys = removedPairs[:0]
		cleanup()
		return divideResult{}, false
	}
	for _, p := range removedPairs {
		ws.PairCount[p] = -1
	}
	// Rebuild the reduced graph without the removed color-complete edges,
	// straight into arena CSR: filtering a sorted row keeps it sorted.
	offsets := ws.Arena.Alloc(n + 1)
	offsets[0] = 0
	kept := int32(0)
	for l := 0; l < n; l++ {
		cl := b.colorOf(sg, l)
		for _, w := range sg.local.Neighbors32(l) {
			if ws.PairCount[packPair(cl, b.colorOf(sg, int(w)))] != -1 {
				kept++
			}
		}
		offsets[l+1] = kept
	}
	adj := ws.Arena.Alloc(int(kept))
	p := 0
	for l := 0; l < n; l++ {
		cl := b.colorOf(sg, l)
		for _, w := range sg.local.Neighbors32(l) {
			if ws.PairCount[packPair(cl, b.colorOf(sg, int(w)))] != -1 {
				adj[p] = w
				p++
			}
		}
	}
	reduced := wk.slab.sub()
	reduced.verts = sg.verts
	reduced.local = wk.slab.graph(offsets, adj)
	members, starts := componentsOf(reduced.local, ws)
	if len(starts) < 3 { // fewer than two components
		ws.Keys = removedPairs[:0]
		cleanup()
		return divideResult{}, false
	}
	slices.Sort(removedPairs) // packed keys sort exactly like (a, b) pairs
	d := newDescriptor(ws, DividedS)
	for _, pk := range removedPairs {
		d.pair(int(pk>>32), int(pk&0xffffffff))
	}
	desc := wk.slab.bytesCopy(d.buf)
	ws.Bytes = d.buf[:0]
	ws.Keys = removedPairs[:0]
	cleanup()
	children := make([]childRef, 0, len(starts)-1)
	for k := 0; k+1 < len(starts); k++ {
		children = append(children, childRef{base: reduced, locals: members[starts[k]:starts[k+1]]})
	}
	return divideResult{kind: DividedS, children: children, desc: desc}, true
}
