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
func (t *Tree) AutOrder() *big.Int {
	if t.Root == nil {
		return big.NewInt(1)
	}
	return nodeAutOrder(t.Root)
}

func nodeAutOrder(nd *Node) *big.Int {
	if nd.autOrder != nil {
		return nd.autOrder
	}
	order := big.NewInt(1)
	switch nd.Kind {
	case KindSingleton:
	case KindLeaf:
		order = group.New(len(nd.Verts), nd.localGens).Order()
	case KindInternal:
		for _, c := range nd.Children {
			order.Mul(order, nodeAutOrder(c))
		}
		run := 1
		for i := 1; i <= len(nd.Children); i++ {
			if i < len(nd.Children) && bytes.Equal(nd.Children[i].Cert, nd.Children[i-1].Cert) {
				run++
				continue
			}
			if run > 1 {
				order.Mul(order, factorial(run))
			}
			run = 1
		}
	}
	nd.autOrder = order
	return order
}

func factorial(k int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= k; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
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
