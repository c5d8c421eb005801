package core

import (
	"bytes"
	"math/big"
	"testing"

	"dvicl/internal/canon"
	"dvicl/internal/gen"
)

// Integration tests pinning DviCL's results on structured families with
// known automorphism groups — cross-validating the core against classical
// group theory rather than against our own baseline.

func TestHeawoodGraph(t *testing.T) {
	// PG2(2)'s incidence graph is the Heawood graph: |Aut| = 336
	// (PGL(3,2) of order 168, doubled by point–line duality).
	g, err := gen.PG2(2)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(g, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(336)) != 0 {
		t.Fatalf("|Aut(Heawood)| = %v, want 336", tree.AutOrder())
	}
	// Self-dual plane: one orbit covering all 14 vertices.
	orbits := tree.Orbits()
	if len(orbits) != 1 || len(orbits[0]) != 14 {
		t.Fatalf("Heawood orbits = %v", orbits)
	}
}

func TestPG3Order(t *testing.T) {
	// PG(2,3): |PGL(3,3)| = 5616, doubled by duality = 11232.
	g, err := gen.PG2(3)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(g, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(11232)) != 0 {
		t.Fatalf("|Aut(PG2(3) incidence)| = %v, want 11232", tree.AutOrder())
	}
}

func TestTorusAutomorphisms(t *testing.T) {
	// GridW(2,5) = C5 □ C5: Aut = (D5 × D5) ⋊ Z2 of order 10·10·2 = 200.
	g := gen.GridW(2, 5)
	tree := Build(g, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(200)) != 0 {
		t.Fatalf("|Aut(C5□C5)| = %v, want 200", tree.AutOrder())
	}
	// GridW(3,3) = H(3,3), the Hamming graph: Aut = S3 wr S3 = 6³·6 = 1296.
	h := gen.GridW(3, 3)
	tree = Build(h, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(1296)) != 0 {
		t.Fatalf("|Aut(H(3,3))| = %v, want 1296", tree.AutOrder())
	}
}

func TestTorusVertexTransitive(t *testing.T) {
	g := gen.GridW(2, 6)
	tree := Build(g, nil, Options{})
	if len(tree.Orbits()) != 1 {
		t.Fatalf("torus not vertex-transitive: %d orbits", len(tree.Orbits()))
	}
	if tree.OrbitEntropy() != 0 {
		t.Fatal("vertex-transitive entropy should be 0")
	}
}

func TestHadamardSmall(t *testing.T) {
	// Hadamard(4): 16 vertices, 5-regular. The Sylvester construction is
	// highly symmetric: rows and columns fuse into few orbits and the
	// group is large.
	g := gen.Hadamard(4)
	tree := Build(g, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(1)) == 0 {
		t.Fatal("Hadamard(4) should be symmetric")
	}
	if cells, _ := tree.OrbitStats(); cells > 2 {
		t.Fatalf("Hadamard(4) orbit cells = %d, want ≤ 2", cells)
	}
}

func TestCFIPairAcrossSizes(t *testing.T) {
	// The fundamental CFI property at several base sizes: twisted and
	// untwisted companions are same-size, same-degree, WL-equivalent but
	// non-isomorphic — and DviCL separates them.
	for _, k := range []int{6, 10, 14} {
		base := gen.CirculantCubic(k)
		g1 := gen.CFI(base, false)
		g2 := gen.CFI(base, true)
		t1 := Build(g1, nil, Options{})
		t2 := Build(g2, nil, Options{})
		if bytes.Equal(t1.CanonicalCert(), t2.CanonicalCert()) {
			t.Fatalf("k=%d: CFI twist pair not separated", k)
		}
		// But a twist on edge e vs a twist moved by relabeling stays
		// isomorphic: twisting is invariant up to even redistributions.
		perm := make([]int, g2.N())
		for i := range perm {
			perm[i] = (i + 7) % len(perm)
		}
		if !bytes.Equal(Build(g2.Permute(perm), nil, Options{}).CanonicalCert(), t2.CanonicalCert()) {
			t.Fatalf("k=%d: relabeled twist not recognized", k)
		}
	}
}

func TestAffinePlaneStructure(t *testing.T) {
	// AG(2,3): 9 points + 12 lines. Collineation group AGL(2,3) has order
	// 9·8·6 = 432; the incidence graph's group adds nothing (no
	// point-line duality for affine planes: degrees differ).
	g, err := gen.AG2(3)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(g, nil, Options{})
	if tree.AutOrder().Cmp(big.NewInt(432)) != 0 {
		t.Fatalf("|Aut(AG2(3) incidence)| = %v, want 432", tree.AutOrder())
	}
	// Orbits: points (degree 4) vs lines (degree 3): lines further split
	// only if parallel classes are distinguishable — they are not.
	cells, singles := tree.OrbitStats()
	if cells != 2 || singles != 0 {
		t.Fatalf("AG2(3) orbit cells=%d singles=%d, want 2/0", cells, singles)
	}
}

func TestBenchmarkFamilyShapes(t *testing.T) {
	// The Table 4 shape: regular families degenerate to a root-only
	// AutoTree; circuit-like families divide deeply.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"grid-w-3-20", "had-256"} {
		d, err := gen.FindDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build(1)
		tree := Build(g, nil, Options{LeafPolicy: canon.PolicyTraces})
		if s := tree.Stats(); s.Nodes != 1 {
			t.Fatalf("%s: AutoTree has %d nodes, want root-only", name, s.Nodes)
		}
	}
	for _, name := range []string{"fpga11-20-uns-rcr", "s3-3-3-10", "difp-21-0-wal-rcr"} {
		d, err := gen.FindDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build(1)
		tree := Build(g, nil, Options{})
		s := tree.Stats()
		if s.Nodes < g.N()/2 {
			t.Fatalf("%s: AutoTree has only %d nodes for n=%d — should divide deeply",
				name, s.Nodes, g.N())
		}
		if s.Depth < 2 {
			t.Fatalf("%s: depth %d, want >= 2", name, s.Depth)
		}
	}
}
