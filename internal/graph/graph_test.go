package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph is the example graph of Fig. 1(a): vertices 0..7, where 7 is
// adjacent to all of 0..6, {0,2}×{1,3} is a 4-cycle pattern, and 4,5,6
// chain to it. Reconstructed from the paper's narration: 0 and 2 have the
// same neighbor set, 1 and 3 have the same neighbor set, (4,5,6) is an
// automorphism, vertex 7 is the unique degree-7 hub.
func paperGraph() *Graph {
	return FromEdges(8, [][2]int{
		{0, 1}, {0, 3}, {2, 1}, {2, 3},
		{4, 5}, {5, 6}, {4, 6},
		{1, 4}, {3, 5}, // attach the triangle symmetrically? see below
		{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7},
	})
}

func TestBuilderDedup(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (dedup + self-loop drop)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge 0-1")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop present")
	}
}

// referenceGraph builds the CSR of a simple graph the long way: a set of
// undirected edges, then each row collected and sorted on its own.
func referenceGraph(n int, edges [][2]int) *Graph {
	rows := make([][]int32, n)
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		rows[u] = append(rows[u], int32(v))
		rows[v] = append(rows[v], int32(u))
	}
	offsets := make([]int32, n+1)
	var adj []int32
	for x, row := range rows {
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		adj = append(adj, row...)
		offsets[x+1] = int32(len(adj))
	}
	return &Graph{offsets: offsets, adj: adj}
}

// TestBuilderMatchesReference: Build's single sort of packed edges must
// give every row strictly ascending and the same labeled graph as the
// reference builder, whatever duplicates, self-loops and orientations the
// edge list holds, for empty, one-vertex and isolated-vertex graphs too.
func TestBuilderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := trial % 3 // n = 0, 1 and 2 come first
		if trial >= 3 {
			n = 1 + r.Intn(40)
		}
		var edges [][2]int
		for k := r.Intn(3*n*n/2 + 1); k > 0; k-- {
			u, v := r.Intn(n), r.Intn(n)
			edges = append(edges, [2]int{u, v})
			if r.Intn(4) == 0 {
				edges = append(edges, [2]int{v, u})
			}
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		g := FromEdges(n, edges)
		if g.N() != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, g.N(), n)
		}
		for x := 0; x < n; x++ {
			row := g.Neighbors32(x)
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					t.Fatalf("trial %d: row %d not strictly ascending: %v", trial, x, row)
				}
			}
		}
		if want := referenceGraph(n, edges); g.Hash() != want.Hash() {
			t.Fatalf("trial %d: Build differs from the reference on n = %d, %d edges", trial, n, len(edges))
		}
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := paperGraph()
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Degree(7) != 7 {
		t.Fatalf("deg(7) = %d, want 7", g.Degree(7))
	}
	s := g.Summary()
	if s.MaxDeg != 7 {
		t.Fatalf("max deg = %d", s.MaxDeg)
	}
	if s.AvgDeg != float64(2*g.M())/8 {
		t.Fatalf("avg deg = %v", s.AvgDeg)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, [][2]int{{4, 0}, {4, 3}, {4, 1}, {4, 2}})
	nb := g.NeighborSlice(4)
	if !sort.IntsAreSorted(nb) {
		t.Fatalf("neighbors not sorted: %v", nb)
	}
	if len(nb) != 4 {
		t.Fatalf("neighbors = %v", nb)
	}
}

func TestPermuteIsIsomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(20)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := FromEdges(n, edges)
		gamma := r.Perm(n)
		h := g.Permute(gamma)
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("permute changed size")
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(gamma[e[0]], gamma[e[1]]) {
				t.Fatalf("edge (%d,%d) missing image", e[0], e[1])
			}
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	g := paperGraph()
	id := make([]int, g.N())
	for i := range id {
		id[i] = i
	}
	if !g.Permute(id).Equal(g) {
		t.Fatal("identity permutation changed graph")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	sub, orig := g.InducedSubgraph([]int{5, 0, 1})
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	wantOrig := []int{0, 1, 5}
	for i, v := range wantOrig {
		if orig[i] != v {
			t.Fatalf("orig = %v", orig)
		}
	}
	// Edges 0-1 and 0-5 survive; 1-5 absent.
	if sub.M() != 2 {
		t.Fatalf("sub.M = %d, edges %v", sub.M(), sub.Edges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(0, 2) || sub.HasEdge(1, 2) {
		t.Fatalf("wrong induced edges: %v", sub.Edges())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {5, 6}})
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("comps = %v", comps)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("comps = %v", comps)
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("round trip changed graph")
	}
}

func TestReadEdgeListCompaction(t *testing.T) {
	in := "# comment\n10 20\n20 30\n% another\n10 30\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want triangle", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) accepted", in)
		}
	}
}

func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		var edges [][2]int
		for i := 0; i < 2*n; i++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		g := FromEdges(n, edges)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		var edges [][2]int
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		g := FromEdges(n, edges)
		seen := make([]bool, n)
		total := 0
		for _, c := range g.ConnectedComponents() {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(20)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := FromEdges(n, edges)
		h := g.Permute(r.Perm(n))
		if g.Fingerprint() != h.Fingerprint() {
			t.Fatalf("fingerprint not invariant (n=%d)", n)
		}
	}
}

func TestFingerprintSeparates(t *testing.T) {
	c6 := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	twoK3 := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	if c6.Fingerprint() == twoK3.Fingerprint() {
		t.Fatal("triangle census should separate C6 from 2K3")
	}
	// CFI-style pairs defeat the fingerprint (same WL profile) — that's
	// expected; the canonical labeler settles those.
}
