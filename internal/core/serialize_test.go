package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/store"
)

// mixedGraph has every node shape in one small tree: a social-graph
// stand-in (DivideI into singletons, twin expansion), a triangle
// (DivideS), and two 5-cycles (equal-certificate leaves with local
// graphs and generators).
func mixedGraph() *graph.Graph {
	social := gen.Social(gen.SocialConfig{
		Name: "mixed", N: 16, M: 40, TwinFrac: 0.2, PendantFrac: 0.2, Seed: 3,
	})
	return gen.DisjointUnion(social, cycle(5), cycle(5), complete(3))
}

// roundTripFamilies are the fixed inputs of TestSaveLoadRoundTrip: a
// social-graph stand-in (twins and pendants), the mixed graph, the small
// hard families (leaf searches with local generators and local graphs),
// and the degenerate graphs.
func roundTripFamilies(t *testing.T) map[string]*graph.Graph {
	pg2, err := gen.PG2(3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"social": gen.Social(gen.SocialConfig{
			Name: "roundtrip", N: 300, M: 1050,
			TwinFrac: 0.12, PendantFrac: 0.18, Seed: 11,
		}),
		"mixed":           mixedGraph(),
		"cfi":             gen.CFI(gen.RigidCubic(10, 7), false),
		"grid-w":          gen.GridW(2, 4),
		"had":             gen.Hadamard(16),
		"mz-aug":          gen.MzAug(4),
		"pg2":             pg2,
		"circular-ladder": gen.CircularLadder(5),
		"empty":           graph.NewBuilder(0).Build(),
		"one-vertex":      graph.NewBuilder(1).Build(),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for name, g := range roundTripFamilies(t) {
		t.Run(name, func(t *testing.T) {
			tree := Build(g, nil, Options{})
			assertSameAnswers(t, tree, saveLoad(t, tree))
		})
	}
	r := rand.New(rand.NewSource(201))
	for trial := 0; trial < 20; trial++ {
		tree := Build(randGraph(r, 2+r.Intn(25), 2), nil, Options{})
		assertSameAnswers(t, tree, saveLoad(t, tree))
	}
}

func saveLoad(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	loaded, err := Load(tree.Save(), tree.Graph())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// assertSameAnswers checks that a loaded tree answers exactly as the
// built one: Gamma, the generators in order, every node, Stats (less the
// leaf-search effort, which records do not store), AutOrder and the
// orbits.
func assertSameAnswers(t *testing.T, built, loaded *Tree) {
	t.Helper()
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.CanonicalCert(), built.CanonicalCert()) {
		t.Fatal("certificate changed across save/load")
	}
	if !loaded.Gamma.Equal(built.Gamma) {
		t.Fatal("Gamma changed")
	}
	if loaded.Truncated != built.Truncated {
		t.Fatal("Truncated changed")
	}
	if !reflect.DeepEqual(loaded.SparseGenerators(), built.SparseGenerators()) {
		t.Fatal("generators changed")
	}
	var walk func(a, b *Node)
	walk = func(a, b *Node) {
		if !bytes.Equal(a.Cert, b.Cert) || a.Kind != b.Kind || a.Divide != b.Divide ||
			!reflect.DeepEqual(a.Verts, b.Verts) || !reflect.DeepEqual(a.CanonicalOrder(), b.CanonicalOrder()) ||
			len(a.Children) != len(b.Children) || len(a.LeafGenerators()) != len(b.LeafGenerators()) {
			t.Fatalf("node over %v changed", a.Verts)
		}
		for i, lg := range a.LeafGenerators() {
			if !lg.Equal(b.LeafGenerators()[i]) {
				t.Fatalf("leaf generator %d of node over %v changed", i, a.Verts)
			}
		}
		if a.LeafGraph() != nil && !a.LeafGraph().Equal(b.LeafGraph()) {
			t.Fatalf("leaf graph of node over %v changed", a.Verts)
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	walk(built.Root, loaded.Root)
	want := built.Stats()
	want.LeafSearchNodes, want.LeafSearchLeaves, want.TruncatedLeaves = 0, 0, 0
	if got := loaded.Stats(); got != want {
		t.Fatalf("stats changed: %+v, want %+v", got, want)
	}
	if loaded.AutOrder().Cmp(built.AutOrder()) != 0 {
		t.Fatal("AutOrder changed")
	}
	if !reflect.DeepEqual(loaded.Orbits(), built.Orbits()) {
		t.Fatal("orbits changed")
	}
}

func TestLoadedTreeAnswersSSMQueries(t *testing.T) {
	// Leaf graphs and generators must survive so SSM keeps working. Use a
	// graph guaranteed to have a non-singleton leaf (a cycle).
	g := cycle(9)
	tree := Build(g, nil, Options{})
	loaded := saveLoad(t, tree)
	leaves := 0
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if nd.Kind == KindLeaf {
			leaves++
			if nd.LeafGraph() == nil {
				t.Fatal("leaf graph lost")
			}
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(loaded.Root)
	if leaves == 0 {
		t.Fatal("no non-singleton leaf to check")
	}
	if len(loaded.Generators()) != len(tree.Generators()) {
		t.Fatal("generators lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g := cycle(4)
	if _, err := Load([]byte("not a tree"), g); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong graph.
	data := Build(g, nil, Options{}).Save()
	if _, err := Load(data, cycle(5)); err == nil {
		t.Fatal("mismatched graph accepted")
	}
	// C6 and two triangles have the same vertex and edge counts: only the
	// graph hash in the header tells their records apart.
	twoTriangles := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	data = Build(cycle(6), nil, Options{}).Save()
	if _, err := Load(data, twoTriangles); !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("C6's record loaded for 2K3: err = %v, want ErrChecksum", err)
	}
}

// TestLoadRejectsMissingLabels: a node without one label per vertex, or
// a leaf whose local graph has the wrong size, fails Verify and does not
// load — CanonicalOrder and the generator walk would index past them.
func TestLoadRejectsMissingLabels(t *testing.T) {
	g := cycle(9)
	for name, damage := range map[string]func(nd *Node){
		"labels":     func(nd *Node) { nd.gammaVal = nil },
		"leaf graph": func(nd *Node) { nd.localGraph = cycle(8) },
	} {
		t.Run(name, func(t *testing.T) {
			tree := Build(g, nil, Options{})
			if tree.Root.Kind != KindLeaf {
				t.Fatalf("C9's root is %v, want a leaf", tree.Root.Kind)
			}
			damage(tree.Root)
			if err := tree.Verify(); err == nil {
				t.Fatal("Verify accepted the damaged tree")
			}
			if _, err := Load(tree.Save(), g); !errors.Is(err, store.ErrChecksum) {
				t.Fatalf("Load: err = %v, want ErrChecksum", err)
			}
		})
	}
}

// TestLoadRejectsLocalEdgePastLastVertex: a leaf row that claims more
// higher neighbors than fit after its last one is an error, not an index
// past the row table. C9's record ends with its leaf's local graph: nine
// rows, the first (vertex 0, neighbors 1 and 8) encoded as 2, 0, 6.
func TestLoadRejectsLocalEdgePastLastVertex(t *testing.T) {
	g := cycle(9)
	data := Build(g, nil, Options{}).Save()
	row0 := len(data) - 4 - 18 // rows: 2,0,6 then seven 1,0 then 0
	if !bytes.Equal(data[row0-1:row0+3], []byte{9, 2, 0, 6}) {
		t.Fatalf("C9's local graph is not where expected: % x", data[row0-1:])
	}
	copy(data[row0:], []byte{3, 7, 0}) // three neighbors, the first already vertex 8
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	if _, err := Load(data, g); !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestLoadRejectsTruncatedStream(t *testing.T) {
	g := cycle(6)
	data := Build(g, nil, Options{}).Save()
	for _, cut := range []int{9, len(data) / 2, len(data) - 1} {
		if _, err := Load(data[:cut], g); err == nil {
			t.Fatalf("truncated record (cut=%d) accepted", cut)
		}
	}
}

// TestRecordCodecCorruptionTyped: every single-byte flip and every
// truncation of a record is a typed store error, and so is a trailing
// byte.
func TestRecordCodecCorruptionTyped(t *testing.T) {
	g := gen.CircularLadder(4)
	data := Build(g, nil, Options{}).Save()
	if _, err := Load(data, g); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Load(mut, g); !typedLoadError(err) {
			t.Fatalf("flip@%d: err = %v, want a typed store error", i, err)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Load(data[:cut], g); !typedLoadError(err) {
			t.Fatalf("truncation@%d: err = %v, want a typed store error", cut, err)
		}
	}
	if _, err := Load(append(data[:len(data):len(data)], 0), g); !typedLoadError(err) {
		t.Fatalf("trailing byte: err = %v, want a typed store error", err)
	}
}
