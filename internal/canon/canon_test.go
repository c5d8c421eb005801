package canon

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/coloring"
	"dvicl/internal/graph"
	"dvicl/internal/group"
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

func path(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.FromEdges(n, edges)
}

func petersen() *graph.Graph {
	var edges [][2]int
	for i := 0; i < 5; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 5})     // outer C5
		edges = append(edges, [2]int{5 + i, 5 + (i+2)%5}) // inner pentagram
		edges = append(edges, [2]int{i, 5 + i})           // spokes
	}
	return graph.FromEdges(10, edges)
}

func randGraph(r *rand.Rand, n int, p int) *graph.Graph {
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

func autOrder(t *testing.T, g *graph.Graph, opt Options) *big.Int {
	t.Helper()
	return checkedOrder(t, g, Canonical(g, nil, opt))
}

// checkedOrder returns the order of the group res's generators generate,
// after checking that each is an automorphism of g.
func checkedOrder(t *testing.T, g *graph.Graph, res Result) *big.Int {
	t.Helper()
	for _, gen := range res.Generators {
		if !g.Permute(gen).Equal(g) {
			t.Fatalf("claimed automorphism %v is not one", gen)
		}
	}
	return group.New(g.N(), res.Generators).Order()
}

func TestAutomorphismGroupOrders(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"C5", cycle(5), 10},
		{"C6", cycle(6), 12},
		{"C8", cycle(8), 16},
		{"K4", complete(4), 24},
		{"K5", complete(5), 120},
		{"P4", path(4), 2},
		{"P7", path(7), 2},
		{"Petersen", petersen(), 120},
		{"K33", graph.FromEdges(6, [][2]int{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}), 72},
		{"2K3", graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}), 72}, // S3 wr S2
		{"Cube", graph.FromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}, {1, 5}, {2, 6}, {3, 7}}), 48},
	}
	for _, pol := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
		for _, tc := range cases {
			got := autOrder(t, tc.g, Options{Policy: pol})
			if got.Cmp(big.NewInt(tc.want)) != 0 {
				t.Errorf("%s/%s: |Aut| = %v, want %d", pol, tc.name, got, tc.want)
			}
		}
	}
}

func TestCanonicalPermutationIsValid(t *testing.T) {
	g := petersen()
	res := Canonical(g, nil, Options{})
	if !res.Canon.IsValid() {
		t.Fatalf("canonical labeling not a permutation: %v", res.Canon)
	}
}

// TestCertIsoInvariant: relabeled copies of a graph share the certificate.
func TestCertIsoInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, pol := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
		for trial := 0; trial < 40; trial++ {
			n := 2 + r.Intn(16)
			g := randGraph(r, n, 2+r.Intn(3))
			res1 := Canonical(g, nil, Options{Policy: pol})
			gamma := r.Perm(n)
			h := g.Permute(gamma)
			res2 := Canonical(h, nil, Options{Policy: pol})
			if !bytes.Equal(res1.Cert, res2.Cert) {
				t.Fatalf("policy %v: certificates differ for isomorphic graphs (n=%d, trial=%d)\n g=%v",
					pol, n, trial, g.Edges())
			}
			// The canonical forms themselves must be the identical graph.
			if !g.Permute(res1.Canon).Equal(h.Permute(res2.Canon)) {
				t.Fatalf("canonical forms differ for isomorphic graphs")
			}
		}
	}
}

// TestCertSeparatesNonIsomorphic uses same-degree-sequence pairs that only
// a real isomorphism test distinguishes.
func TestCertSeparatesNonIsomorphic(t *testing.T) {
	// C6 vs 2×C3: both 2-regular on 6 vertices.
	g1 := cycle(6)
	g2 := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	for _, pol := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
		r1 := Canonical(g1, nil, Options{Policy: pol})
		r2 := Canonical(g2, nil, Options{Policy: pol})
		if bytes.Equal(r1.Cert, r2.Cert) {
			t.Fatalf("policy %v: C6 and 2K3 got equal certificates", pol)
		}
	}
	// K33 vs prism (K3×K2): both 3-regular on 6 vertices.
	k33 := graph.FromEdges(6, [][2]int{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}})
	prism := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}})
	r1 := Canonical(k33, nil, Options{})
	r2 := Canonical(prism, nil, Options{})
	if bytes.Equal(r1.Cert, r2.Cert) {
		t.Fatal("K33 and prism got equal certificates")
	}
}

// TestRandomIsoPairs also checks the converse direction on random pairs:
// unequal certs for graphs that differ in an edge.
func TestRandomNonIsoPerturbation(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(12)
		g := randGraph(r, n, 2)
		edges := g.Edges()
		if len(edges) == 0 || len(edges) == n*(n-1)/2 {
			continue
		}
		// Remove one edge: different edge count ⇒ must differ.
		h := graph.FromEdges(n, edges[:len(edges)-1])
		r1 := Canonical(g, nil, Options{})
		r2 := Canonical(h, nil, Options{})
		if bytes.Equal(r1.Cert, r2.Cert) {
			t.Fatalf("graphs with different edge counts share a cert")
		}
	}
}

func TestColoredGraphRestrictsAutomorphisms(t *testing.T) {
	// C6 with alternating colors has only the rotations by 2 and the
	// color-preserving reflections: |Aut| = 6 (dihedral group of the
	// triangle formed by each color class).
	g := cycle(6)
	pi, err := coloring.FromCells(6, [][]int{{0, 2, 4}, {1, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	res := Canonical(g, pi, Options{})
	for _, gen := range res.Generators {
		if !g.Permute(gen).Equal(g) {
			t.Fatalf("non-automorphism generator")
		}
		for v := 0; v < 6; v++ {
			if pi.Color(v) != pi.Color(gen[v]) {
				t.Fatalf("generator %v does not preserve colors", gen)
			}
		}
	}
	order := group.New(6, res.Generators).Order()
	if order.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("|Aut(C6, alternating)| = %v, want 6", order)
	}
}

func TestColoredIsoInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(10)
		g := randGraph(r, n, 2)
		// Random 2-coloring.
		var c0, c1 []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				c0 = append(c0, v)
			} else {
				c1 = append(c1, v)
			}
		}
		if len(c0) == 0 || len(c1) == 0 {
			continue
		}
		pi, err := coloring.FromCells(n, [][]int{c0, c1})
		if err != nil {
			t.Fatal(err)
		}
		gamma := r.Perm(n)
		h := g.Permute(gamma)
		img := func(vs []int) []int {
			out := make([]int, len(vs))
			for i, v := range vs {
				out[i] = gamma[v]
			}
			return out
		}
		piH, err := coloring.FromCells(n, [][]int{img(c0), img(c1)})
		if err != nil {
			t.Fatal(err)
		}
		r1 := Canonical(g, pi, Options{})
		r2 := Canonical(h, piH, Options{})
		if !bytes.Equal(r1.Cert, r2.Cert) {
			t.Fatalf("colored certificates differ for isomorphic colored graphs")
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	g0 := graph.FromEdges(0, nil)
	res := Canonical(g0, nil, Options{})
	if res.Leaves != 1 {
		t.Fatalf("empty graph: %d leaves, want its one discrete coloring", res.Leaves)
	}
	g1 := graph.FromEdges(1, nil)
	res = Canonical(g1, nil, Options{})
	if len(res.Canon) != 1 || res.Canon[0] != 0 {
		t.Fatalf("1-vertex canon = %v", res.Canon)
	}
	g2 := graph.FromEdges(2, [][2]int{{0, 1}})
	res = Canonical(g2, nil, Options{})
	order := group.New(2, res.Generators).Order()
	if order.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("|Aut(K2)| = %v", order)
	}
}

// TestPoliciesAgreeOnGroup: all three emulated tools must find the same
// automorphism group (their canonical forms may differ — each is its own
// canonical representative function, as the paper notes in §6.1).
func TestPoliciesAgreeOnGroup(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(10)
		g := randGraph(r, n, 3)
		var orders []*big.Int
		for _, pol := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
			res := Canonical(g, nil, Options{Policy: pol})
			orders = append(orders, group.New(n, res.Generators).Order())
		}
		if orders[0].Cmp(orders[1]) != 0 || orders[0].Cmp(orders[2]) != 0 {
			t.Fatalf("policies disagree on |Aut|: %v %v %v\n edges=%v",
				orders[0], orders[1], orders[2], g.Edges())
		}
	}
}

// TestGroupOrderAgainstBruteForce verifies the generating set is complete
// by enumerating all permutations on small graphs.
func TestGroupOrderAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(6) // n ≤ 7 keeps n! manageable
		g := randGraph(r, n, 2)
		res := Canonical(g, nil, Options{})
		got := group.New(n, res.Generators).Order()
		want := int64(0)
		permute(n, func(p []int) {
			if g.Permute(p).Equal(g) {
				want++
			}
		})
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("|Aut| = %v, brute force %d, edges=%v", got, want, g.Edges())
		}
	}
}

// permute calls fn with every permutation of {0..n-1} (Heap's algorithm).
func permute(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	if n > 0 {
		rec(n)
	}
}
