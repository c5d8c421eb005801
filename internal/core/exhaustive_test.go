package core

import (
	"flag"
	"fmt"
	"testing"

	"dvicl/internal/canon"
	"dvicl/internal/graph"
	"dvicl/internal/group"
	"dvicl/internal/perm"
)

var exhaustive7 = flag.Bool("exhaustive7", false,
	"also check all 2,097,152 labeled graphs on 7 vertices (about a minute per worker setting)")

// TestExhaustiveClassCount is an oracle independent of the code under
// test. Every labeled graph on n vertices is canonicalized; there must be
// exactly as many certificate classes as there are graphs up to
// isomorphism (OEIS A000088: 156 on 6 vertices, 1,044 on 7), and by
// orbit–stabilizer each class's size times the order of the group its
// members' generators generate must be n!. Too many classes means
// isomorphic graphs got different certificates; a short product means the
// generators miss part of Aut.
func TestExhaustiveClassCount(t *testing.T) {
	build := func(workers int) func(g *graph.Graph) ([]byte, []perm.Perm) {
		return func(g *graph.Graph) ([]byte, []perm.Perm) {
			tree := Build(g, nil, Options{Workers: workers})
			return tree.CanonicalCert(), tree.Generators()
		}
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("n6/build-w%d", workers), func(t *testing.T) {
			checkClassCount(t, 6, 156, build(workers))
		})
		t.Run(fmt.Sprintf("n7/build-w%d", workers), func(t *testing.T) {
			if !*exhaustive7 {
				t.Skip("run with -exhaustive7")
			}
			checkClassCount(t, 7, 1044, build(workers))
		})
	}
	for _, pol := range []canon.Policy{canon.PolicyBliss, canon.PolicyNauty, canon.PolicyTraces} {
		t.Run("n6/canon-"+pol.String(), func(t *testing.T) {
			checkClassCount(t, 6, 156, func(g *graph.Graph) ([]byte, []perm.Perm) {
				res := canon.Canonical(g, nil, canon.Options{Policy: pol})
				return res.Cert, res.Generators
			})
		})
	}
}

// checkClassCount canonicalizes all 2^(n(n-1)/2) labeled graphs on n
// vertices with canonicalize and checks the class count and, for every
// graph, that its generators are automorphisms and generate a group of
// order n! / (size of its class).
func checkClassCount(t *testing.T, n, wantClasses int, canonicalize func(*graph.Graph) ([]byte, []perm.Perm)) {
	t.Helper()
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	type class struct {
		size  int64
		order int64 // |⟨generators⟩| of every member
		mask  int   // first member, for messages
	}
	classes := map[string]*class{}
	edges := make([][2]int, 0, len(pairs))
	for mask := 0; mask < 1<<len(pairs); mask++ {
		edges = edges[:0]
		for i, p := range pairs {
			if mask>>i&1 == 1 {
				edges = append(edges, p)
			}
		}
		g := graph.FromEdges(n, edges)
		cert, gens := canonicalize(g)
		for _, p := range gens {
			if !g.Permute(p).Equal(g) {
				t.Fatalf("graph %#x: generator %v is not an automorphism", mask, p)
			}
		}
		order := group.New(n, gens).Order().Int64()
		c := classes[string(cert)]
		if c == nil {
			classes[string(cert)] = &class{size: 1, order: order, mask: mask}
			continue
		}
		if order != c.order {
			t.Fatalf("graph %#x: |Aut| = %d, but %d for graph %#x of the same class", mask, order, c.order, c.mask)
		}
		c.size++
	}
	if len(classes) != wantClasses {
		t.Errorf("%d certificate classes, want %d", len(classes), wantClasses)
	}
	fact := int64(1)
	for i := 2; i <= n; i++ {
		fact *= int64(i)
	}
	for _, c := range classes {
		if c.size*c.order != fact {
			t.Errorf("class of graph %#x: %d graphs × |Aut| %d ≠ %d", c.mask, c.size, c.order, fact)
		}
	}
}
