package core

import (
	"bytes"
	"fmt"

	"dvicl/internal/graph"
)

// KSymmetrize implements the k-symmetry anonymization application of the
// paper (Sections 1 and 5, after Wu et al. [34]): the graph is extended so
// that every vertex has at least k−1 automorphic counterparts, by
// duplicating root subtrees of the AutoTree until every certificate group
// has at least k symmetric siblings.
//
// Each clone copies a subtree's internal edges and attaches to the
// original's current outside neighborhood, which makes original and clone
// exchangeable by an automorphism that fixes everything else (they become
// "structural twins at subtree scale"). Components are cloned before axis
// singletons so that axis clones pick up the component clones'
// attachments.
//
// The tree's root must have been divided by DivideI (true for every
// real-world graph in the paper's evaluation, whose equitable colorings
// have singleton cells); other roots — fully regular graphs — are
// rejected.
func KSymmetrize(t *Tree, k int) (*graph.Graph, error) {
	if k < 2 {
		return t.Graph(), nil
	}
	root := t.Root
	if root == nil || root.Kind != KindInternal || root.Divide != DividedI {
		return nil, fmt.Errorf("core: KSymmetrize needs a DivideI-divided root (regular graph?)")
	}
	g := t.Graph()
	n := g.N()

	// Plan clones: for every certificate group with multiplicity m < k,
	// clone the first member k−m times. Components first, axis singletons
	// last.
	type cloneJob struct {
		src    *Node
		copies int
	}
	var componentJobs, axisJobs []cloneJob
	for i := 0; i < len(root.Children); {
		j := i + 1
		for j < len(root.Children) && bytes.Equal(root.Children[j].Cert, root.Children[i].Cert) {
			j++
		}
		if m := j - i; m < k {
			job := cloneJob{src: root.Children[i], copies: k - m}
			if root.Children[i].Kind == KindSingleton {
				axisJobs = append(axisJobs, job)
			} else {
				componentJobs = append(componentJobs, job)
			}
		}
		i = j
	}

	extra := 0
	for _, job := range append(append([]cloneJob(nil), componentJobs...), axisJobs...) {
		extra += job.copies * len(job.src.Verts)
	}
	b := graph.NewBuilder(n + extra)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}

	// adj tracks the *current* neighborhood of every original vertex as
	// clones attach, so later clones see earlier ones.
	adj := make(map[int][]int, n)
	addEdge := func(u, v int) {
		b.AddEdge(u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := 0; v < n; v++ {
		adj[v] = g.NeighborSlice(v)
	}

	next := n
	clone := func(src *Node) {
		inSrc := make(map[int]int, len(src.Verts)) // original -> clone id
		for _, v := range src.Verts {
			inSrc[v] = next
			next++
		}
		for _, v := range src.Verts {
			cv := inSrc[v]
			for _, w := range adj[v] {
				if cw, ok := inSrc[w]; ok {
					// Internal edge: copy once (when v < w).
					if v < w {
						addEdge(cv, cw)
					}
				} else {
					addEdge(cv, w)
				}
			}
		}
	}
	for _, job := range componentJobs {
		for c := 0; c < job.copies; c++ {
			clone(job.src)
		}
	}
	for _, job := range axisJobs {
		for c := 0; c < job.copies; c++ {
			clone(job.src)
		}
	}
	return b.Build(), nil
}
