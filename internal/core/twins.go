package core

import (
	"slices"

	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
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
//
// pi is the build's equitable coloring. With DisableTwinSimplification
// set, detection is skipped and the whole graph is divided.
func (b *builder) buildSimplified(pi *coloring.Coloring, wk *worker, ts *obs.TraceSpan) (*Node, error) {
	var twinsOf map[int][]int
	var removed []int
	if !b.opt.DisableTwinSimplification {
		detect := obs.StartUnder(b.opt.Obs, ts, obs.PhaseTwins)
		twinsOf = wholeClassTwins(b.t.g, pi)
		detect.End()
		for _, twins := range twinsOf {
			removed = append(removed, twins...)
		}
		if len(removed) > 0 {
			b.opt.Obs.Add(obs.TwinVertsCollapsed, int64(len(removed)))
			detect.SetAttr("collapsed", int64(len(removed)))
		}
	}
	mark := wk.ws.Arena.Mark()
	defer wk.ws.Arena.Release(mark)
	slices.Sort(removed)
	n := b.t.g.N()
	kept := make([]int, 0, n-len(removed))
	for v := 0; v < n; v++ {
		if len(removed) > 0 && removed[0] == v {
			removed = removed[1:]
		} else {
			kept = append(kept, v)
		}
	}
	root, err := b.cl(b.subgraphOf(kept, wk), wk, ts)
	if err != nil || len(twinsOf) == 0 {
		return root, err
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

// wholeClassTwins finds every cell of pi with two or more members whose
// members are pairwise structurally equivalent (equal neighbor rows),
// returning its least member -> the other members, ascending. Only a
// twin class allocates.
func wholeClassTwins(g *graph.Graph, pi *coloring.Coloring) map[int][]int {
	var out map[int][]int
	for st := 0; st < pi.N(); st = pi.CellEnd(st) {
		end := pi.CellEnd(st)
		if end-st < 2 {
			continue
		}
		nb := g.Neighbors32(pi.LabAt(st))
		twins := true
		for p := st + 1; p < end && twins; p++ {
			twins = slices.Equal(nb, g.Neighbors32(pi.LabAt(p)))
		}
		if !twins {
			continue
		}
		members := make([]int, end-st)
		for i := range members {
			members[i] = pi.LabAt(st + i)
		}
		slices.Sort(members)
		if out == nil {
			out = map[int][]int{}
		}
		out[members[0]] = members[1:]
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
