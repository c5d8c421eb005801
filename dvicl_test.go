package dvicl

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	c4 := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	tree := BuildAutoTree(c4, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("|Aut(C4)| = %v, want 8", tree.AutOrder())
	}
	p4 := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if Isomorphic(c4, p4) {
		t.Fatal("C4 isomorphic to P4?")
	}
	relabeled := c4.Permute([]int{2, 0, 3, 1})
	if !Isomorphic(c4, relabeled) {
		t.Fatal("C4 not isomorphic to its relabeling")
	}
}

func TestFacadeAutomorphismGroup(t *testing.T) {
	pete := FromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	})
	gens, order := AutomorphismGroup(pete)
	if order.Cmp(big.NewInt(120)) != 0 {
		t.Fatalf("|Aut(Petersen)| = %v, want 120", order)
	}
	for _, g := range gens {
		if !pete.Permute(g).Equal(pete) {
			t.Fatal("generator is not an automorphism")
		}
	}
	orbits := Orbits(pete)
	if len(orbits) != 1 {
		t.Fatalf("Petersen is vertex-transitive; orbits = %v", orbits)
	}
}

func TestFacadeSSM(t *testing.T) {
	star := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	ix := NewSSMIndex(BuildAutoTree(star, nil, Options{}))
	if got := ix.CountImages([]int{1}); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("CountImages = %v, want 4", got)
	}
}

func TestFacadeBaseline(t *testing.T) {
	c5 := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	res := Baseline(c5, nil, BaselineOptions{Policy: PolicyNauty})
	if NewPermGroup(5, res.Generators).Order().Cmp(big.NewInt(10)) != 0 {
		t.Fatal("baseline group order wrong")
	}
}

func TestFacadeIO(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.M())
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0 1") {
		t.Fatalf("output %q", sb.String())
	}
}

func TestFacadeWorkloads(t *testing.T) {
	k4 := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got := len(MaxClique(k4)); got != 4 {
		t.Fatalf("max clique %d", got)
	}
	size, all := MaxCliques(k4, 0)
	if size != 4 || len(all) != 1 {
		t.Fatalf("MaxCliques = %d/%d", size, len(all))
	}
	count := 0
	Triangles(k4, func(a, b, c int) { count++ })
	if count != 4 {
		t.Fatalf("K4 triangles = %d, want 4", count)
	}
	m := NewICModel(k4, 1.0, 4, 1)
	if got := m.Spread([]int{0}); got != 4 {
		t.Fatalf("spread %v", got)
	}
	if got := len(m.Greedy(2)); got != 2 {
		t.Fatalf("greedy %d seeds", got)
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(RealDatasets()) != 22 || len(BenchmarkDatasets()) != 9 {
		t.Fatal("dataset catalogs wrong size")
	}
	d, err := FindDataset("cfi-200")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(1)
	if g.N() != 2000 {
		t.Fatalf("cfi-200 n = %d", g.N())
	}
}

func TestFacadeColoring(t *testing.T) {
	pi, err := ColoringFromCells(4, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c4 := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	cert1 := CanonicalCert(c4, pi, Options{})
	cert2 := CanonicalCert(c4, nil, Options{})
	if string(cert1) == string(cert2) {
		t.Fatal("coloring ignored in certificate")
	}
	if UnitColoring(4).NumCells() != 1 {
		t.Fatal("unit coloring wrong")
	}
}

// TestColoringSizeMismatch: a coloring of another size than the graph is
// an error from the context entry points and a panic naming both sizes
// from the others, never an index out of range.
func TestColoringSizeMismatch(t *testing.T) {
	c5 := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	ctx := context.Background()
	for _, k := range []int{3, 7} {
		pi := UnitColoring(k)
		sizes := func(msg string) bool {
			return strings.Contains(msg, fmt.Sprintf("%d vertices", k)) && strings.Contains(msg, "has 5")
		}
		if _, err := BuildAutoTreeCtx(ctx, c5, pi, Options{}); err == nil || !sizes(err.Error()) {
			t.Errorf("BuildAutoTreeCtx with %d colors: err = %v", k, err)
		}
		if _, err := CanonicalCertCtx(ctx, c5, pi, Options{}); err == nil || !sizes(err.Error()) {
			t.Errorf("CanonicalCertCtx with %d colors: err = %v", k, err)
		}
		for name, call := range map[string]func(){
			"BuildAutoTree": func() { BuildAutoTree(c5, pi, Options{}) },
			"Baseline":      func() { Baseline(c5, pi, BaselineOptions{}) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !sizes(msg) {
						t.Errorf("%s with %d colors: panic %q, want one naming both sizes", name, k, msg)
					}
				}()
				call()
			}()
		}
	}
}

func TestFacadeSubgraphMatcher(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	q := FromEdges(2, [][2]int{{0, 1}})
	m := NewSubgraphMatcher(g, nil)
	if got := len(m.FindInduced(q, nil, 0)); got != 8 {
		t.Fatalf("C4 ordered edge embeddings = %d, want 8", got)
	}
}

func TestFindIsomorphism(t *testing.T) {
	pete := FromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	})
	shuffled := pete.Permute([]int{7, 3, 9, 1, 5, 0, 8, 2, 6, 4})
	gamma, ok := FindIsomorphism(pete, shuffled)
	if !ok {
		t.Fatal("isomorphic pair rejected")
	}
	if !pete.Permute(gamma).Equal(shuffled) {
		t.Fatal("returned mapping is not an isomorphism")
	}
	other := FromEdges(10, [][2]int{{0, 1}})
	if _, ok := FindIsomorphism(pete, other); ok {
		t.Fatal("non-isomorphic pair accepted")
	}
}

func TestGraphIndex(t *testing.T) {
	ix := NewGraphIndex(Options{})
	c4 := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	p4 := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	id0, dup, err := ix.Add(c4)
	if id0 != 0 || dup || err != nil {
		t.Fatalf("first add: id=%d dup=%v err=%v", id0, dup, err)
	}
	_, dup, err = ix.Add(c4.Permute([]int{2, 0, 3, 1}))
	if !dup || err != nil {
		t.Fatalf("relabeled duplicate not detected (err=%v)", err)
	}
	_, dup, err = ix.Add(p4)
	if dup || err != nil {
		t.Fatalf("distinct graph flagged duplicate (err=%v)", err)
	}
	if ix.Len() != 3 || ix.Classes() != 2 {
		t.Fatalf("len=%d classes=%d, want 3/2", ix.Len(), ix.Classes())
	}
	if got := ix.Lookup(c4); len(got) != 2 {
		t.Fatalf("lookup C4 = %v", got)
	}
	if got := ix.Lookup(FromEdges(4, nil)); len(got) != 0 {
		t.Fatalf("lookup absent = %v", got)
	}
}

// TestEndToEndPipeline drives the full system the way the paper's
// evaluation does: generate a dataset stand-in, build the AutoTree,
// verify its invariants, answer SSM queries for IM seeds, compress to the
// quotient, and anonymize — one pass over every major subsystem.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d, err := FindDataset("Epinions")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(100)
	tree := BuildAutoTree(g, nil, Options{})
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}

	// Canonical invariance at scale (relabel by a rotation).
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = (i + 17) % g.N()
	}
	h := g.Permute(perm)
	if !Isomorphic(g, h) {
		t.Fatal("relabeled stand-in not recognized")
	}

	// IM + SSM.
	model := NewICModel(g, 0.05, 32, 3)
	seeds := model.Greedy(10)
	ix := NewSSMIndex(tree)
	count := ix.CountImages(seeds)
	if count.Sign() <= 0 {
		t.Fatalf("seed-set image count = %v", count)
	}

	// Quotient shrinks (the stand-in has planted symmetry).
	q := tree.Quotient()
	if q.Graph.N() >= g.N() {
		t.Fatalf("quotient did not shrink: %d >= %d", q.Graph.N(), g.N())
	}

	// k-symmetry anonymization.
	anon, err := KSymmetrize(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	anonTree := BuildAutoTree(anon, nil, Options{})
	for _, o := range anonTree.Orbits() {
		if len(o) < 2 {
			t.Fatalf("anonymized graph still has a singleton orbit")
		}
	}
}

func TestSaveLoadAutoTreeFacade(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tree := BuildAutoTree(g, nil, Options{})
	var buf strings.Builder
	if err := SaveAutoTree(tree, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAutoTree(strings.NewReader(buf.String()), g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AutOrder().Cmp(tree.AutOrder()) != 0 {
		t.Fatal("round trip changed the group")
	}
}
