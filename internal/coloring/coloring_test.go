package coloring

import (
	"math/rand"
	"slices"
	"testing"

	"dvicl/internal/engine"
	"dvicl/internal/graph"
)

// fig1Graph is the example graph of Fig. 1(a). The paper's facts about it:
// deg(7)=7 (hub adjacent to all), refinement of the unit coloring yields
// [0,1,2,3,4,5,6|7], further refining yields [0,1,2,3|4,5,6|7]; vertices
// 0,2 and 1,3 are structural twins; (4,5,6) is an automorphism. The edge
// set below realizes all of those facts: 0-1,0-3,2-1,2-3 (a C4 on
// {0,1,2,3}), a triangle 4-5-6 where 4 attaches to 1 and 3... we instead
// wire the triangle so that each of 4,5,6 has degree 3 overall and 2
// neighbors inside {0..6}: triangle edges only, plus hub. Then every
// vertex in {0..6} has exactly 2 neighbors in {0..6} and 1 neighbor (7),
// matching the equitable-coloring discussion of π1 in Section 2.
func fig1Graph() *graph.Graph {
	return graph.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // C4 on 0..3
		{4, 5}, {5, 6}, {6, 4}, // triangle on 4..6
		{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7},
	})
}

func TestUnitColoring(t *testing.T) {
	c := Unit(5)
	if c.NumCells() != 1 || c.IsDiscrete() {
		t.Fatalf("unit coloring wrong: %v", c)
	}
	for v := 0; v < 5; v++ {
		if c.Color(v) != 0 {
			t.Fatalf("color(%d) = %d", v, c.Color(v))
		}
	}
	if c.String() != "[0,1,2,3,4]" {
		t.Fatalf("string = %q", c.String())
	}
}

func TestFromCells(t *testing.T) {
	c, err := FromCells(4, [][]int{{2, 0}, {1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Color(0) != 0 || c.Color(2) != 0 || c.Color(1) != 2 || c.Color(3) != 3 {
		t.Fatalf("colors wrong: %v", c)
	}
	if c.NumCells() != 3 || c.NumSingletons() != 2 {
		t.Fatalf("cells=%d singles=%d", c.NumCells(), c.NumSingletons())
	}
	if _, err := FromCells(4, [][]int{{0, 1}}); err == nil {
		t.Fatal("partial cover accepted")
	}
	if _, err := FromCells(4, [][]int{{0, 1}, {1, 2, 3}}); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestIndividualize(t *testing.T) {
	c := Unit(4)
	s, r := c.Individualize(2)
	if s != 0 || r != 1 {
		t.Fatalf("individualize returned (%d,%d)", s, r)
	}
	if c.Color(2) != 0 {
		t.Fatalf("individualized vertex color = %d", c.Color(2))
	}
	if c.NumCells() != 2 {
		t.Fatalf("cells = %d", c.NumCells())
	}
	if got := c.String(); got != "[2|0,1,3]" {
		t.Fatalf("coloring = %q", got)
	}
	// Individualizing a singleton is a no-op.
	s2, r2 := c.Individualize(2)
	if s2 != 0 || r2 != -1 {
		t.Fatalf("re-individualize returned (%d,%d)", s2, r2)
	}
}

func TestRefinePaperExample(t *testing.T) {
	g := fig1Graph()
	c := Unit(8)
	c.Refine(g, nil)
	if !c.IsEquitable(g) {
		t.Fatalf("refined coloring not equitable: %v", c)
	}
	// Unit refinement splits hub (degree 7) from the rest (degree 3):
	// π1 = [0,1,2,3,4,5,6 | 7] per Section 2.
	if got := c.String(); got != "[0,1,2,3,4,5,6|7]" {
		t.Fatalf("refined = %q, want [0,1,2,3,4,5,6|7]", got)
	}
}

func TestRefineAfterIndividualize(t *testing.T) {
	g := fig1Graph()
	c := Unit(8)
	c.Refine(g, nil)
	s, r := c.Individualize(0)
	c.Refine(g, []int{s, r})
	if !c.IsEquitable(g) {
		t.Fatalf("not equitable after individualize+refine: %v", c)
	}
	// 0 individualized: its C4 distinguishes 2 (opposite), {1,3}
	// (adjacent), and the triangle {4,5,6} stays together.
	if c.Color(1) != c.Color(3) {
		t.Fatal("1 and 3 should share a cell")
	}
	if c.Color(4) != c.Color(5) || c.Color(5) != c.Color(6) {
		t.Fatal("4,5,6 should share a cell")
	}
	if c.Color(0) == c.Color(2) {
		t.Fatal("0 and 2 should be separated")
	}
	if len(c.CellOf(2)) != 1 {
		t.Fatalf("cell of 2 = %v", c.CellOf(2))
	}
}

func TestRefineDiscreteOnPath(t *testing.T) {
	// A path 0-1-2-3-4 has ends vs middles; refinement alone does not make
	// it discrete (0,4 symmetric), but individualizing 0 does.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	c := Unit(5)
	c.Refine(g, nil)
	if c.IsDiscrete() {
		t.Fatal("path refinement should not be discrete (mirror symmetry)")
	}
	s, r := c.Individualize(0)
	c.Refine(g, []int{s, r})
	if !c.IsDiscrete() {
		t.Fatalf("individualizing an end should make the path discrete: %v", c)
	}
}

func TestRefineRegularGraphNoSplit(t *testing.T) {
	// A 6-cycle is vertex-transitive: the unit coloring stays one cell.
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	c := Unit(6)
	c.Refine(g, nil)
	if c.NumCells() != 1 {
		t.Fatalf("cycle refined into %d cells: %v", c.NumCells(), c)
	}
}

// applyPerm returns the coloring πᵞ whose cells are the γ-images of c's
// cells, in the same order. Used to check invariance of refinement.
func applyPerm(c *Coloring, gamma []int) *Coloring {
	var cells [][]int
	for _, cell := range c.Cells() {
		img := make([]int, len(cell))
		for i, v := range cell {
			img[i] = gamma[v]
		}
		cells = append(cells, img)
	}
	out, err := FromCells(c.N(), cells)
	if err != nil {
		panic(err)
	}
	return out
}

// orderedTrace refines c like Refine and returns its ordered trace, the
// search's node invariant.
func orderedTrace(t *testing.T, c *Coloring, g *graph.Graph, active []int) []uint64 {
	t.Helper()
	w := engine.GetWorkspace(c.N())
	defer engine.PutWorkspace(w)
	var vals []uint64
	if _, err := c.RefineSearch(g, active, w, nil, nil, &vals, nil); err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestRefineIsoInvariant is the property (iii) of R: refining Gᵞ with πᵞ
// gives R(G,π)ᵞ, and the ordered traces are equal.
func TestRefineIsoInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(24)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		gamma := r.Perm(n)
		h := g.Permute(gamma)

		c1 := Unit(n)
		t1 := orderedTrace(t, c1, g, nil)
		c2 := Unit(n)
		t2 := orderedTrace(t, c2, h, nil)
		if !slices.Equal(t1, t2) {
			t.Fatalf("trace differs under permutation: %x vs %x", t1, t2)
		}
		want := applyPerm(c1, gamma)
		if !want.Equal(c2) {
			t.Fatalf("refined coloring not invariant:\n g: %v\n h: %v\n want %v",
				c1, c2, want)
		}
	}
}

// TestRefineIsoInvariantWithIndividualization extends invariance through
// an individualize step, the exact pattern the search tree relies on.
func TestRefineIsoInvariantWithIndividualization(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(16)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(2) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		gamma := r.Perm(n)
		h := g.Permute(gamma)

		c1 := Unit(n)
		c1.Refine(g, nil)
		v := r.Intn(n)
		s1, r1 := c1.Individualize(v)
		t1 := orderedTrace(t, c1, g, []int{s1, r1})

		c2 := Unit(n)
		c2.Refine(h, nil)
		s2, r2 := c2.Individualize(gamma[v])
		t2 := orderedTrace(t, c2, h, []int{s2, r2})

		if !slices.Equal(t1, t2) {
			t.Fatalf("trace differs after individualization")
		}
		if !applyPerm(c1, gamma).Equal(c2) {
			t.Fatalf("coloring not invariant after individualization")
		}
	}
}

// TestRefineFixpoint: refining an already-equitable coloring must not
// change it.
func TestRefineFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(20)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		c := Unit(n)
		c.Refine(g, nil)
		d := c.Clone()
		d.Refine(g, nil)
		if !c.Equal(d) {
			t.Fatalf("refine not idempotent: %v vs %v", c, d)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	c := Unit(4)
	d := c.Clone()
	d.Individualize(1)
	if c.NumCells() != 1 {
		t.Fatal("clone not independent")
	}
	if d.NumCells() != 2 {
		t.Fatal("clone mutation lost")
	}
}

func TestPermOfDiscrete(t *testing.T) {
	c, err := FromCells(3, [][]int{{2}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Perm()
	// Vertex 2 is in the first cell → color 0, vertex 0 → 1, vertex 1 → 2.
	if p[2] != 0 || p[0] != 1 || p[1] != 2 {
		t.Fatalf("perm = %v", p)
	}
}

// TestRefineActiveSeedEquivalence: refining from scratch and refining
// with an explicit all-cells active list must agree.
func TestRefineActiveSeedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(20)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		a := Unit(n)
		a.Refine(g, nil)
		b := Unit(n)
		b.Refine(g, []int{0})
		if !a.Equal(b) {
			t.Fatalf("seeded refinement differs: %v vs %v", a, b)
		}
	}
}

// TestIndividualizeChainDiscretizes: repeatedly individualizing the first
// non-singleton cell's first vertex and refining must terminate in a
// discrete coloring within n steps.
func TestIndividualizeChainDiscretizes(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(25)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(2) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		c := Unit(n)
		c.Refine(g, nil)
		steps := 0
		for !c.IsDiscrete() {
			if steps++; steps > n {
				t.Fatalf("individualization chain did not terminate: %v", c)
			}
			var target int = -1
			for _, cell := range c.Cells() {
				if len(cell) > 1 {
					target = cell[0]
					break
				}
			}
			s, rest := c.Individualize(target)
			c.Refine(g, []int{s, rest})
			if !c.IsEquitable(g) {
				t.Fatalf("coloring not equitable after step %d", steps)
			}
		}
		// Discrete coloring is a permutation.
		p := c.Perm()
		hit := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || hit[x] {
				t.Fatalf("discrete coloring not a bijection: %v", p)
			}
			hit[x] = true
		}
	}
}

func TestCellQueries(t *testing.T) {
	c, err := FromCells(6, [][]int{{0, 3}, {1, 4, 5}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CellOf(4); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("CellOf(4) = %v", got)
	}
	if c.NumCells() != 3 || c.NumSingletons() != 1 {
		t.Fatalf("cells=%d singles=%d", c.NumCells(), c.NumSingletons())
	}
	cells := c.Cells()
	if len(cells) != 3 || len(cells[1]) != 3 {
		t.Fatalf("Cells() = %v", cells)
	}
}
