package core

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/canon"
	"dvicl/internal/graph"
	"dvicl/internal/group"
	"dvicl/internal/perm"
)

func cycle(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return graph.FromEdges(n, edges)
}

func complete(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdges(n, edges)
}

func star(leaves int) *graph.Graph {
	var edges [][2]int
	for i := 1; i <= leaves; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph.FromEdges(leaves+1, edges)
}

func completeBipartite(a, b int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, [2]int{i, a + j})
		}
	}
	return graph.FromEdges(a+b, edges)
}

// fig1 is the example graph of Fig. 1(a) as reconstructed in the coloring
// package tests: C4 on {0,1,2,3}, triangle on {4,5,6}, hub 7.
func fig1() *graph.Graph {
	return graph.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 4},
		{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7},
	})
}

func randGraph(r *rand.Rand, n, p int) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(p) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

var bothModes = []struct {
	name string
	opt  Options
}{
	{"twins-on", Options{}},
	{"twins-off", Options{DisableTwinSimplification: true}},
}

func TestGammaIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, mode := range bothModes {
		for trial := 0; trial < 30; trial++ {
			n := 1 + r.Intn(20)
			g := randGraph(r, n, 2)
			tree := Build(g, nil, mode.opt)
			if !tree.Gamma.IsValid() {
				t.Fatalf("%s: Gamma not a permutation: %v (n=%d edges=%v)",
					mode.name, tree.Gamma, n, g.Edges())
			}
		}
	}
}

func TestGeneratorsAreAutomorphisms(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, mode := range bothModes {
		for trial := 0; trial < 40; trial++ {
			n := 2 + r.Intn(18)
			g := randGraph(r, n, 2+r.Intn(2))
			tree := Build(g, nil, mode.opt)
			for _, gen := range tree.Generators() {
				if !g.Permute(gen).Equal(g) {
					t.Fatalf("%s: generator %v is not an automorphism of %v",
						mode.name, gen, g.Edges())
				}
			}
		}
	}
}

// TestCanonicalInvariance is Theorem 6.9: isomorphic graphs produce equal
// canonical certificates (and equal tree structures, Theorem 6.6).
func TestCanonicalInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, mode := range bothModes {
		for trial := 0; trial < 60; trial++ {
			n := 2 + r.Intn(20)
			g := randGraph(r, n, 2+r.Intn(3))
			gamma := r.Perm(n)
			h := g.Permute(gamma)
			t1 := Build(g, nil, mode.opt)
			t2 := Build(h, nil, mode.opt)
			if !bytes.Equal(t1.CanonicalCert(), t2.CanonicalCert()) {
				t.Fatalf("%s trial %d: certificates differ for isomorphic graphs\n edges=%v\n gamma=%v",
					mode.name, trial, g.Edges(), gamma)
			}
			if !g.Permute(t1.Gamma).Equal(h.Permute(t2.Gamma)) {
				t.Fatalf("%s trial %d: canonical forms differ\n edges=%v", mode.name, trial, g.Edges())
			}
			s1, s2 := t1.Stats(), t2.Stats()
			// Leaf search effort is label-dependent (the I-R search visits
			// different nodes under relabeling); only the tree structure is
			// the theorem's invariant.
			s1.LeafSearchNodes, s2.LeafSearchNodes = 0, 0
			s1.LeafSearchLeaves, s2.LeafSearchLeaves = 0, 0
			if s1 != s2 {
				t.Fatalf("%s: tree structures differ for isomorphic graphs: %+v vs %+v",
					mode.name, s1, s2)
			}
		}
	}
}

func TestNonIsomorphicSeparated(t *testing.T) {
	pairs := []struct {
		name   string
		g1, g2 *graph.Graph
	}{
		{"C6 vs 2K3", cycle(6), graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})},
		{"K33 vs prism", completeBipartite(3, 3), graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}})},
	}
	for _, mode := range bothModes {
		for _, p := range pairs {
			t1 := Build(p.g1, nil, mode.opt)
			t2 := Build(p.g2, nil, mode.opt)
			if bytes.Equal(t1.CanonicalCert(), t2.CanonicalCert()) {
				t.Errorf("%s/%s: non-isomorphic graphs share a certificate", mode.name, p.name)
			}
		}
	}
}

// TestAutOrderMatchesBaseline cross-checks the tree's product-formula
// group order against the individualization–refinement engine's group on
// the whole graph.
func TestAutOrderMatchesBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, mode := range bothModes {
		for trial := 0; trial < 40; trial++ {
			n := 2 + r.Intn(14)
			g := randGraph(r, n, 2+r.Intn(2))
			tree := Build(g, nil, mode.opt)
			res := canon.Canonical(g, nil, canon.Options{})
			want := group.New(n, res.Generators).Order()
			if tree.AutOrder().Cmp(want) != 0 {
				t.Fatalf("%s: AutOrder=%v, baseline=%v\n edges=%v",
					mode.name, tree.AutOrder(), want, g.Edges())
			}
			// The generator-derived group must agree too.
			got := group.New(n, tree.Generators()).Order()
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: generator group order %v != baseline %v\n edges=%v",
					mode.name, got, want, g.Edges())
			}
		}
	}
}

func TestAutOrderKnownGraphs(t *testing.T) {
	fact := func(n int) *big.Int {
		f := big.NewInt(1)
		for i := 2; i <= n; i++ {
			f.Mul(f, big.NewInt(int64(i)))
		}
		return f
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want *big.Int
	}{
		{"C8", cycle(8), big.NewInt(16)},
		{"K6", complete(6), fact(6)},
		{"Star9", star(9), fact(9)},
		{"K35", completeBipartite(3, 5), new(big.Int).Mul(fact(3), fact(5))},
		{"K44", completeBipartite(4, 4), new(big.Int).Mul(big.NewInt(2), new(big.Int).Mul(fact(4), fact(4)))},
		{"Empty7", graph.FromEdges(7, nil), fact(7)},
		{"Fig1", fig1(), big.NewInt(48)}, // D4 on the C4 (8) × S3 on the triangle... see below
	}
	for _, mode := range bothModes {
		for _, tc := range cases {
			tree := Build(tc.g, nil, mode.opt)
			if tree.AutOrder().Cmp(tc.want) != 0 {
				t.Errorf("%s/%s: AutOrder = %v, want %v", mode.name, tc.name, tree.AutOrder(), tc.want)
			}
		}
	}
}

// TestOrbitsMatchBaseline compares the orbit partitions of the tree with
// the baseline engine's.
func TestOrbitsMatchBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for _, mode := range bothModes {
		for trial := 0; trial < 30; trial++ {
			n := 2 + r.Intn(14)
			g := randGraph(r, n, 2)
			tree := Build(g, nil, mode.opt)
			res := canon.Canonical(g, nil, canon.Options{})
			want := group.Orbits(n, res.Generators)
			got := tree.Orbits()
			if len(got) != len(want) {
				t.Fatalf("%s: orbit counts differ: %v vs %v (edges=%v)", mode.name, got, want, g.Edges())
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s: orbits differ: %v vs %v", mode.name, got, want)
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s: orbits differ: %v vs %v", mode.name, got, want)
					}
				}
			}
		}
	}
}

func TestTreeStructureFig1(t *testing.T) {
	// DviCL on the Fig. 1(a) graph: hub 7 is a singleton cell, DivideI
	// splits off the C4 and the triangle; both are further divided by
	// DivideS (they are color-complete structures) or left as leaves.
	tree := Build(fig1(), nil, Options{})
	s := tree.Stats()
	if s.Depth < 1 {
		t.Fatalf("depth = %d, want >= 1", s.Depth)
	}
	// All 8 vertices must appear in leaves exactly once.
	seen := map[int]bool{}
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if len(nd.Children) == 0 {
			for _, v := range nd.Verts {
				if seen[v] {
					t.Fatalf("vertex %d in two leaves", v)
				}
				seen[v] = true
			}
			return
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	if len(seen) != 8 {
		t.Fatalf("leaves cover %d of 8 vertices", len(seen))
	}
	// Orbits: {4,5,6} together (triangle rotation), {0,1,2,3} together
	// (C4 is vertex-transitive here given the hub), 7 alone.
	cells, singles := tree.OrbitStats()
	if singles != 1 {
		t.Fatalf("singleton orbits = %d, want 1 (the hub)", singles)
	}
	if cells != 3 {
		t.Fatalf("orbit cells = %d, want 3", cells)
	}
}

func TestEmptyAndSingleVertex(t *testing.T) {
	for _, mode := range bothModes {
		tree := Build(graph.FromEdges(1, nil), nil, mode.opt)
		if len(tree.Gamma) != 1 || tree.Gamma[0] != 0 {
			t.Fatalf("%s: single-vertex Gamma = %v", mode.name, tree.Gamma)
		}
		if tree.AutOrder().Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: single-vertex AutOrder = %v", mode.name, tree.AutOrder())
		}
	}
}

// TestTwinHeavyGraph: a social-like pattern — hubs with pendant twins —
// must yield an AutoTree with only singleton leaves and the right group.
func TestTwinHeavyGraph(t *testing.T) {
	// Hub 0 with pendants 1,2,3; hub 4 (adjacent to 0) with pendants 5,6.
	g := graph.FromEdges(7, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {4, 6},
	})
	for _, mode := range bothModes {
		tree := Build(g, nil, mode.opt)
		want := new(big.Int).Mul(big.NewInt(6), big.NewInt(2)) // 3! × 2!
		if tree.AutOrder().Cmp(want) != 0 {
			t.Fatalf("%s: AutOrder = %v, want 12", mode.name, tree.AutOrder())
		}
		s := tree.Stats()
		if s.NonSingletonLeaves != 0 {
			t.Fatalf("%s: expected only singleton leaves, got %+v", mode.name, s)
		}
	}
}

// TestModesAgreeOnGroup: twin simplification must not change the group or
// the orbit structure (it is purely an optimization).
func TestModesAgreeOnGroup(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(16)
		g := randGraph(r, n, 3)
		t1 := Build(g, nil, Options{})
		t2 := Build(g, nil, Options{DisableTwinSimplification: true})
		if t1.AutOrder().Cmp(t2.AutOrder()) != 0 {
			t.Fatalf("modes disagree on AutOrder: %v vs %v (edges=%v)",
				t1.AutOrder(), t2.AutOrder(), g.Edges())
		}
	}
}

// TestDisableDivideSStaysCorrect: the ablation knob must not change the
// computed group or break invariance, only the tree shape.
func TestDisableDivideSStaysCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	opt := Options{DisableDivideS: true}
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(14)
		g := randGraph(r, n, 2)
		tree := Build(g, nil, opt)
		res := canon.Canonical(g, nil, canon.Options{})
		want := group.New(n, res.Generators).Order()
		if tree.AutOrder().Cmp(want) != 0 {
			t.Fatalf("ablated AutOrder=%v, baseline=%v (edges=%v)",
				tree.AutOrder(), want, g.Edges())
		}
		gamma := r.Perm(n)
		h := g.Permute(gamma)
		t2 := Build(h, nil, opt)
		if !bytes.Equal(tree.CanonicalCert(), t2.CanonicalCert()) {
			t.Fatalf("ablated certificates differ for isomorphic graphs")
		}
	}
	// On the Fig. 1(a) graph DivideS is what splits the triangle: with it
	// disabled the tree must have a non-singleton leaf covering {4,5,6}.
	full := Build(fig1(), nil, Options{DisableTwinSimplification: true})
	ablated := Build(fig1(), nil, Options{DisableTwinSimplification: true, DisableDivideS: true})
	if ablated.Stats().NonSingletonLeaves <= full.Stats().NonSingletonLeaves &&
		ablated.Stats() == full.Stats() {
		t.Fatalf("ablation had no effect on tree shape: %+v vs %+v",
			ablated.Stats(), full.Stats())
	}
}

// TestParallelBuildIdentical: the Workers option must not change the tree
// — same certificates, stats, group order, orbits.
func TestParallelBuildIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(60)
		g := randGraph(r, n, 3)
		seq := Build(g, nil, Options{})
		par := Build(g, nil, Options{Workers: 8})
		if !bytes.Equal(seq.CanonicalCert(), par.CanonicalCert()) {
			t.Fatalf("parallel build changed the certificate (n=%d)", n)
		}
		if seq.Stats() != par.Stats() {
			t.Fatalf("parallel build changed the tree: %+v vs %+v", seq.Stats(), par.Stats())
		}
		if seq.AutOrder().Cmp(par.AutOrder()) != 0 {
			t.Fatalf("parallel build changed |Aut|")
		}
		if !seq.Gamma.Equal(par.Gamma) {
			t.Fatalf("parallel build changed the canonical labeling")
		}
	}
}

func TestCanonicalGraph(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(15)
		g := randGraph(r, n, 2)
		h := g.Permute(r.Perm(n))
		cg := Build(g, nil, Options{}).CanonicalGraph()
		ch := Build(h, nil, Options{}).CanonicalGraph()
		if !cg.Equal(ch) {
			t.Fatalf("canonical graphs differ for isomorphic inputs (n=%d)", n)
		}
	}
}

func TestVerifyOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for _, mode := range bothModes {
		for trial := 0; trial < 25; trial++ {
			n := 1 + r.Intn(30)
			g := randGraph(r, n, 2+r.Intn(2))
			tree := Build(g, nil, mode.opt)
			if err := tree.Verify(); err != nil {
				t.Fatalf("%s: %v (n=%d edges=%v)", mode.name, err, n, g.Edges())
			}
		}
	}
}

func TestVerifyOnStructuredGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{fig1(), cycle(12), complete(8), star(10), completeBipartite(3, 5)} {
		tree := Build(g, nil, Options{})
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyRejectsNonAutomorphism: Verify must check generators edge by
// edge, not just the degrees of the points they move. Both injected maps
// preserve degrees: swapping 0 and 2 on C6 breaks edge {0,5}, and
// sending 0 to 2 on C4 keeps every edge at 0 but is no permutation.
func TestVerifyRejectsNonAutomorphism(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.Graph
		moved [][2]int
	}{
		{cycle(6), [][2]int{{0, 2}, {2, 0}}},
		{cycle(4), [][2]int{{0, 2}}},
	} {
		tree := Build(tc.g, nil, Options{})
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
		tree.sparseGens = append(tree.sparseGens, perm.Sparse{N: tc.g.N(), Moved: tc.moved})
		if err := tree.Verify(); err == nil {
			t.Fatalf("C%d: generator %v accepted as an automorphism", tc.g.N(), tc.moved)
		}
	}
}
