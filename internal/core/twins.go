package core

import (
	"slices"
	"sort"

	"dvicl/internal/engine"
	"dvicl/internal/obs"
)

// buildSimplified implements the structural-equivalence optimization of
// Section 6.1: vertices with identical neighbor sets (twins) are
// interchangeable, so each twin class is collapsed to one representative
// before dividing, and the finished tree is expanded by duplicating the
// representative's singleton leaf.
//
// We collapse a twin class only when it coincides with an entire color
// class of the equitable coloring. In that case the representative's
// projected cell is a singleton everywhere, so DivideI isolates it into a
// singleton leaf and expansion is exactly the paper's "add sibling leaf
// nodes" case. Twin classes that share a color class with other vertices
// are left to the regular machinery (DivideS isolates them anyway, since
// for an equitable coloring a twin class's neighborhood is a union of
// whole cells, i.e. removable bicliques).
func (b *builder) buildSimplified(wk *worker, ts *obs.TraceSpan) (*Node, error) {
	n := b.t.g.N()
	detect := obs.StartUnder(b.opt.Obs, ts, obs.PhaseTwins)
	twinsOf := b.wholeClassTwins()
	detect.End()
	mark := wk.ws.Arena.Mark()
	defer wk.ws.Arena.Release(mark)
	if len(twinsOf) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return b.cl(b.subgraphOf(all, wk), wk, ts)
	}
	removed := make([]bool, n)
	var collapsed int64
	for _, twins := range twinsOf {
		collapsed += int64(len(twins))
		for _, v := range twins {
			removed[v] = true
		}
	}
	b.opt.Obs.Add(obs.TwinVertsCollapsed, collapsed)
	detect.SetAttr("collapsed", collapsed)
	var kept []int
	for v := 0; v < n; v++ {
		if !removed[v] {
			kept = append(kept, v)
		}
	}
	root, err := b.cl(b.subgraphOf(kept, wk), wk, ts)
	if err != nil {
		return nil, err
	}
	expand := obs.StartUnder(b.opt.Obs, ts, obs.PhaseTwins)
	expanded, err := b.expandTwins(root, twinsOf, wk, expand.TraceSpan())
	expand.End()
	if err != nil {
		return nil, err
	}
	if len(expanded) == 1 {
		return expanded[0], nil
	}
	// The simplified graph degenerated to a single twin representative:
	// wrap the expanded siblings in a fresh internal node, mirroring what
	// DivideI on the unsimplified graph would have produced.
	wrapper := wk.slab.node()
	wrapper.Kind = KindInternal
	wrapper.Divide = DividedI
	d := newDescriptor(wk.ws, DividedI)
	wrapper.desc = wk.slab.bytesCopy(d.buf)
	wk.ws.Bytes = d.buf[:0]
	wrapper.Children = expanded
	b.combineST(wrapper, wk, ts)
	return wrapper, nil
}

// wholeClassTwins finds every color class whose members are pairwise
// structural equivalent, returning representative -> other members.
func (b *builder) wholeClassTwins() map[int][]int {
	n := b.t.g.N()
	classes := map[int][]int{}
	for v := 0; v < n; v++ {
		c := b.t.colors[v]
		classes[c] = append(classes[c], v)
	}
	out := map[int][]int{}
	for _, members := range classes {
		if len(members) < 2 {
			continue
		}
		sort.Ints(members)
		rep := members[0]
		repNb := b.t.g.NeighborSlice(rep)
		allTwins := true
		for _, v := range members[1:] {
			if !slices.Equal(repNb, b.t.g.NeighborSlice(v)) {
				allTwins = false
				break
			}
		}
		if allTwins {
			out[rep] = members[1:]
		}
	}
	return out
}

// expandTwins restores collapsed twin classes. Every representative is
// a singleton color class of the kept graph, so its singleton leaf is
// either the root itself (the kept graph was that one vertex) or one of
// the root's children, split off by the root's DivideI. Each
// representative's leaf gains one sibling singleton leaf per twin, and
// CombineST re-runs at the root alone — the only node whose children
// change — so Verts, γg and certificates stay consistent. ts is the
// twins span that CombineST run nests under. A representative anywhere
// else is an internal error. When the root was the representative, the
// result is its leaf plus the twins' leaves; otherwise it is the root.
func (b *builder) expandTwins(root *Node, twinsOf map[int][]int, wk *worker, ts *obs.TraceSpan) ([]*Node, error) {
	nodes := []*Node{root}
	if root.Kind != KindSingleton {
		nodes = root.Children
	}
	var out []*Node
	found := 0
	for _, nd := range nodes {
		out = append(out, nd)
		if nd.Kind != KindSingleton {
			continue
		}
		twins, ok := twinsOf[nd.Verts[0]]
		if !ok {
			continue
		}
		found++
		for _, v := range twins {
			leaf := wk.slab.node()
			verts := wk.slab.intSlice(1)
			verts[0] = v
			leaf.Verts = verts
			b.makeSingleton(leaf, wk)
			out = append(out, leaf)
		}
	}
	if found != len(twinsOf) {
		return nil, engine.Internalf("core.expandTwins",
			"%d of %d twin representatives are not singleton children of the root", len(twinsOf)-found, len(twinsOf))
	}
	if root.Kind == KindSingleton {
		return out, nil
	}
	root.Children = out
	b.combineST(root, wk, ts)
	return []*Node{root}, nil
}
