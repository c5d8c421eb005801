package core

import (
	"bytes"
	"math/big"

	"dvicl/internal/engine"
	"dvicl/internal/group"
	"dvicl/internal/perm"
)

// gensCollector accumulates sparse automorphism generators while walking
// the finished tree.
type gensCollector struct {
	n    int
	gens []perm.Sparse
	err  error
}

// collectGens derives a generating set of Aut(G, π) from the finished
// tree: the lifted within-leaf generators, plus one sibling-swap
// isomorphism γi ∘ γj⁻¹ for every adjacent pair of equal-certificate
// siblings (Section 5: these form a generating set because every
// automorphism maps tree nodes to same-certificate tree nodes).
// Generators are sparse: each moves only its leaf's or sibling pair's
// vertices, so the collection stays linear in the tree size even on
// million-vertex graphs.
func collectGens(n int, root *Node) ([]perm.Sparse, error) {
	gc := &gensCollector{n: n}
	gc.walk(root)
	if gc.err != nil {
		return nil, gc.err
	}
	return gc.gens, nil
}

func (gc *gensCollector) walk(nd *Node) {
	if gc.err != nil {
		return
	}
	switch nd.Kind {
	case KindSingleton:
		return
	case KindLeaf:
		for _, lg := range nd.localGens {
			s := perm.Sparse{N: gc.n}
			for i, v := range nd.Verts {
				if img := nd.Verts[lg[i]]; img != v {
					s.Moved = append(s.Moved, [2]int{v, img})
				}
			}
			if !s.IsIdentity() {
				gc.gens = append(gc.gens, s)
			}
		}
	case KindInternal:
		for i := 0; i+1 < len(nd.Children); i++ {
			a, bb := nd.Children[i], nd.Children[i+1]
			if bytes.Equal(a.Cert, bb.Cert) {
				if len(a.Verts) != len(bb.Verts) {
					gc.err = engine.Internalf("core.collectGens",
						"equal-certificate siblings of different size (%d vs %d)",
						len(a.Verts), len(bb.Verts))
					return
				}
				gc.gens = append(gc.gens, swapGen(gc.n, a, bb))
			}
		}
		for _, c := range nd.Children {
			gc.walk(c)
		}
	}
}

// swapGen builds the automorphism that exchanges two equal-certificate
// siblings by matching their vertices canonical-position by canonical-
// position (the γij of Section 5), fixing everything else. The caller
// has verified the siblings are the same size.
func swapGen(n int, a, b *Node) perm.Sparse {
	av := vertsByGamma(a)
	bv := vertsByGamma(b)
	s := perm.Sparse{N: n, Moved: make([][2]int, 0, 2*len(av))}
	for k := range av {
		s.Moved = append(s.Moved, [2]int{av[k], bv[k]}, [2]int{bv[k], av[k]})
	}
	return s
}

// AutOrder returns |Aut(G, π)| using the tree structure: the product over
// internal nodes of k! for every run of k equal-certificate siblings,
// times the product of the leaf automorphism group orders. This is exact
// because equal-certificate siblings are independent components of the
// reduced graph, so the group is the iterated wreath-style product the
// AutoTree exposes.
//
// The order is computed once per tree, on the first call, so concurrent
// callers share one result.
func (t *Tree) AutOrder() *big.Int {
	t.autOrderOnce.Do(func() {
		t.autOrder = big.NewInt(1)
		if t.Root != nil {
			var tmp big.Int
			mulAutOrder(t.autOrder, &tmp, t.Root)
		}
	})
	return t.autOrder
}

// mulAutOrder multiplies order by |Aut| of nd's subtree: by each leaf's
// group order, and by j at the j-th sibling of each run of
// equal-certificate siblings, so a run of r siblings contributes r!.
// tmp is scratch.
func mulAutOrder(order, tmp *big.Int, nd *Node) {
	switch nd.Kind {
	case KindLeaf:
		order.Mul(order, group.New(len(nd.Verts), nd.localGens).Order())
	case KindInternal:
		run := 1
		for i, c := range nd.Children {
			mulAutOrder(order, tmp, c)
			if i > 0 && bytes.Equal(c.Cert, nd.Children[i-1].Cert) {
				run++
				order.Mul(order, tmp.SetInt64(int64(run)))
			} else {
				run = 1
			}
		}
	}
}

// Orbits returns the orbit partition of the vertices under Aut(G, π) —
// the orbit coloring whose cell counts Tables 1 and 2 report.
func (t *Tree) Orbits() [][]int {
	return group.OrbitsSparse(t.g.N(), t.sparseGens)
}

// OrbitStats returns the cells / singleton columns of Tables 1 and 2.
func (t *Tree) OrbitStats() (cells, singletons int) {
	return group.OrbitStatsSparse(t.g.N(), t.sparseGens)
}
