package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(25)
		g := randGraph(r, n, 2)
		tree := Build(g, nil, Options{})

		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(loaded.CanonicalCert(), tree.CanonicalCert()) {
			t.Fatal("certificate changed across save/load")
		}
		if !loaded.Gamma.Equal(tree.Gamma) {
			t.Fatal("Gamma changed")
		}
		if loaded.Stats() != tree.Stats() {
			t.Fatalf("stats changed: %+v vs %+v", loaded.Stats(), tree.Stats())
		}
		if loaded.AutOrder().Cmp(tree.AutOrder()) != 0 {
			t.Fatal("AutOrder changed")
		}
		if err := loaded.Verify(); err != nil {
			t.Fatal(err)
		}
		// Orbits survive (generators round-tripped).
		a, b := tree.OrbitStats()
		c, d := loaded.OrbitStats()
		if a != c || b != d {
			t.Fatal("orbit stats changed")
		}
	}
}

func TestLoadedTreeAnswersSSMQueries(t *testing.T) {
	// Leaf graphs and generators must survive so SSM keeps working. Use a
	// graph guaranteed to have a non-singleton leaf (a cycle).
	g := cycle(9)
	tree := Build(g, nil, Options{})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := Load(strings.NewReader("not a tree"), g); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong graph.
	tree := Build(g, nil, Options{})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := cycle(5)
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("mismatched graph accepted")
	}
}

func TestLoadRejectsTruncatedStream(t *testing.T) {
	g := cycle(6)
	tree := Build(g, nil, Options{})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{9, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut]), g); err == nil {
			t.Fatalf("truncated stream (cut=%d) accepted", cut)
		}
	}
}
