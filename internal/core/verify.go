package core

import (
	"bytes"
	"fmt"
	"sort"

	"dvicl/internal/perm"
)

// Verify checks the structural invariants of a finished AutoTree and
// returns the first violation found (nil when sound). It is the
// self-check used by tests and available to callers who feed untrusted
// inputs:
//
//  1. leaves partition the vertex set;
//  2. every node's vertex set is the union of its children's;
//  3. children are sorted by certificate;
//  4. every node's canonical labels γg are unique and per-color
//     contiguous (π(v) + rank);
//  5. the root labeling is a bijection onto {0,…,n−1};
//  6. every stored generator is an automorphism of the graph.
func (t *Tree) Verify() error {
	if t.Root == nil {
		return nil
	}
	n := t.g.N()
	seen := make([]bool, n)
	var walk func(nd *Node) error
	walk = func(nd *Node) error {
		if len(nd.Verts) == 0 && nd.Kind != KindLeaf {
			return fmt.Errorf("core: empty non-leaf node")
		}
		if !sort.IntsAreSorted(nd.Verts) {
			return fmt.Errorf("core: node vertices unsorted")
		}
		// γg uniqueness.
		vals := map[int]bool{}
		for _, gv := range nd.gammaVal {
			if vals[gv] {
				return fmt.Errorf("core: duplicate γ value %d in node", gv)
			}
			vals[gv] = true
		}
		if len(nd.Children) == 0 {
			for _, v := range nd.Verts {
				if seen[v] {
					return fmt.Errorf("core: vertex %d in two leaves", v)
				}
				seen[v] = true
			}
			return nil
		}
		// Children cert-sorted and vertex-partitioning.
		total := 0
		for i, c := range nd.Children {
			if i > 0 && bytes.Compare(nd.Children[i-1].Cert, c.Cert) > 0 {
				return fmt.Errorf("core: children not certificate-sorted")
			}
			total += len(c.Verts)
		}
		if total != len(nd.Verts) {
			return fmt.Errorf("core: children cover %d of %d vertices", total, len(nd.Verts))
		}
		for _, c := range nd.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			return fmt.Errorf("core: vertex %d not in any leaf", v)
		}
	}
	// Root labeling is a bijection.
	if len(t.Gamma) != n {
		return fmt.Errorf("core: Gamma has length %d, want %d", len(t.Gamma), n)
	}
	hit := make([]bool, n)
	for _, img := range t.Gamma {
		if img < 0 || img >= n || hit[img] {
			return fmt.Errorf("core: Gamma is not a bijection")
		}
		hit[img] = true
	}
	// Generators are automorphisms. img is the identity and hit all false
	// between generators.
	img := make([]int, n)
	for v := range img {
		img[v] = v
	}
	clear(hit)
	for _, s := range t.sparseGens {
		err := t.checkGenerator(s, img, hit)
		for _, m := range s.Moved {
			img[m[0]], hit[m[1]] = m[0], false
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkGenerator reports whether s is an automorphism of the graph: it
// must permute its moved points, and map every edge at a moved point to
// an edge (edges between fixed points map to themselves). It fills img
// with s's images and marks them in hit; the caller restores both.
func (t *Tree) checkGenerator(s perm.Sparse, img []int, hit []bool) error {
	for _, m := range s.Moved {
		img[m[0]] = m[1]
	}
	for _, m := range s.Moved {
		v, w := m[0], m[1]
		if v == w || img[w] == w || hit[w] {
			return fmt.Errorf("core: generator does not permute its moved points")
		}
		hit[w] = true
		for _, u := range t.g.Neighbors32(v) {
			if !t.g.HasEdge(w, img[u]) {
				return fmt.Errorf("core: generator maps edge {%d,%d} to non-edge {%d,%d}", v, u, w, img[u])
			}
		}
	}
	return nil
}
