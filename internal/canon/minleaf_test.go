package canon

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// oracleLeaf is a leaf of the unpruned search tree: the ordered trace of
// each level below the root, and the leaf's certificate.
type oracleLeaf struct {
	levels [][]uint64
	cert   []byte
}

// compareOracleLeaves is the canonical leaf's definition: leaves order by
// ordered trace level by level, each level lexicographically with a
// proper prefix first, then by depth, then by certificate bytes.
func compareOracleLeaves(a, b *oracleLeaf) int {
	for i := 0; i < len(a.levels) && i < len(b.levels); i++ {
		if c := slices.Compare(a.levels[i], b.levels[i]); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a.levels), len(b.levels)); c != 0 {
		return c
	}
	return bytes.Compare(a.cert, b.cert)
}

// minimumLeaf walks the whole search tree of (g, pi) under policy, with
// no pruning of any kind, and returns its least leaf. Only the target
// cell selector is shared with the search.
func minimumLeaf(t *testing.T, g *graph.Graph, pi *coloring.Coloring, policy Policy) *oracleLeaf {
	t.Helper()
	ws := engine.GetWorkspace(g.N())
	defer engine.PutWorkspace(ws)
	root := coloring.Unit(g.N())
	if pi != nil {
		root = pi.Clone()
	}
	rootCells := cellSizes(root)
	if err := root.RefineWS(g, nil, ws, nil, nil); err != nil {
		t.Fatal(err)
	}
	selector := &search{opt: Options{Policy: policy}}
	var least *oracleLeaf
	var levels [][]uint64
	var walk func(c *coloring.Coloring)
	walk = func(c *coloring.Coloring) {
		if c.IsDiscrete() {
			l := &oracleLeaf{levels: slices.Clone(levels), cert: EncodeCertificate(g, c.Perm(), rootCells)}
			if least == nil || compareOracleLeaves(l, least) < 0 {
				least = l
			}
			return
		}
		for _, v := range selector.targetCell(c) {
			child := c.Clone()
			s1, s2 := child.Individualize(v)
			var vals []uint64
			if _, err := child.RefineSearch(g, []int{s1, s2}, ws, nil, nil, &vals, nil); err != nil {
				t.Fatal(err)
			}
			levels = append(levels, vals)
			walk(child)
			levels = levels[:len(levels)-1]
		}
	}
	walk(root)
	return least
}

// shrikhande is the Cayley graph of Z4×Z4 with connection set ±(1,0),
// ±(0,1), ±(1,1): strongly regular (16, 6, 2, 2), like the 4×4 rook's
// graph, but not isomorphic to it.
func shrikhande() *graph.Graph {
	var edges [][2]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for _, d := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
				edges = append(edges, [2]int{4*a + b, 4*((a+d[0])%4) + (b+d[1])%4})
			}
		}
	}
	return graph.FromEdges(16, edges)
}

// rook4 is the 4×4 rook's graph: squares attack along rows and columns.
func rook4() *graph.Graph {
	var edges [][2]int
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v++ {
			if u/4 == v/4 || u%4 == v%4 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.FromEdges(16, edges)
}

// paley is the Paley graph on a prime q ≡ 1 (mod 4): x ~ y iff x − y is
// a nonzero square mod q.
func paley(q int) *graph.Graph {
	square := make([]bool, q)
	for x := 1; x < q; x++ {
		square[x*x%q] = true
	}
	var edges [][2]int
	for x := 0; x < q; x++ {
		for y := x + 1; y < q; y++ {
			if square[y-x] {
				edges = append(edges, [2]int{x, y})
			}
		}
	}
	return graph.FromEdges(q, edges)
}

// TestCanonicalIsMinimumLeaf: under each policy, the certificate
// Canonical returns is the least leaf's, by the canonical leaf's
// definition, of the search tree walked in full. The pruned search must
// reach the same leaf on random small colored graphs and on strongly
// regular and CFI graphs, where refinement leaves wide cells and the
// first, best and pruned paths part early.
func TestCanonicalIsMinimumLeaf(t *testing.T) {
	r := rand.New(rand.NewSource(1301))
	type input struct {
		name string
		g    *graph.Graph
		pi   *coloring.Coloring
	}
	var inputs []input
	pg, err := gen.PG2(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []input{
		{"shrikhande", shrikhande(), nil},
		{"rook-4x4", rook4(), nil},
		{"paley-13", paley(13), nil},
		{"paley-17", paley(17), nil},
		{"cfi-k4", gen.CFI(complete(4), false), nil},
		{"pg2-2", pg, nil},
	} {
		for k := 0; k < 8; k++ {
			inputs = append(inputs, input{fmt.Sprintf("%s/%d", in.name, k), in.g.Permute(r.Perm(in.g.N())), nil})
		}
	}
	// Random graphs with edge probability 1/2 to 1/4: the unpruned tree
	// of a complete or empty graph on 9 vertices has 9! leaves.
	for i := 0; i < 100; i++ {
		n := 1 + r.Intn(9)
		cells := make([][]int, 1+r.Intn(3))
		for v := 0; v < n; v++ {
			k := r.Intn(len(cells))
			cells[k] = append(cells[k], v)
		}
		cells = slices.DeleteFunc(cells, func(c []int) bool { return len(c) == 0 })
		pi, err := coloring.FromCells(n, cells)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", i), randGraph(r, n, 2+r.Intn(3)), pi})
	}
	for _, in := range inputs {
		for _, policy := range []Policy{PolicyBliss, PolicyNauty, PolicyTraces} {
			want := minimumLeaf(t, in.g, in.pi, policy)
			if got := Canonical(in.g, in.pi, Options{Policy: policy}); !bytes.Equal(got.Cert, want.cert) {
				t.Errorf("%s under %s: Canonical's certificate is not the least leaf's", in.name, policy)
			}
		}
	}
}
