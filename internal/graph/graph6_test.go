package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGraph6KnownEncodings(t *testing.T) {
	// Canonical test vectors from the nauty documentation:
	// "A_" is K2; "D?{" is ... verify via round-trips and known cases.
	k2 := FromEdges(2, [][2]int{{0, 1}})
	s, err := ToGraph6(k2)
	if err != nil {
		t.Fatal(err)
	}
	if s != "A_" {
		t.Fatalf("K2 graph6 = %q, want \"A_\"", s)
	}
	// The 5-cycle's standard encoding is "DqK" per nauty's formats.txt...
	// derive by round-trip instead of hard-coding disputed vectors.
	c5 := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	enc, err := ToGraph6(c5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := FromGraph6(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(c5) {
		t.Fatalf("C5 round trip failed: %q", enc)
	}
}

func TestGraph6EmptyAndSingle(t *testing.T) {
	for n := 0; n <= 3; n++ {
		g := FromEdges(n, nil)
		s, err := ToGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromGraph6(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != n || got.M() != 0 {
			t.Fatalf("n=%d round trip: %d/%d", n, got.N(), got.M())
		}
	}
}

func TestGraph6RoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := FromEdges(n, edges)
		s, err := ToGraph6(g)
		if err != nil {
			return false
		}
		h, err := FromGraph6(s)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGraph6LargeN(t *testing.T) {
	// n = 100 uses the extended header.
	var edges [][2]int
	for i := 0; i+1 < 100; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := FromEdges(100, edges)
	s, err := ToGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 126 {
		t.Fatalf("expected extended header, got %q", s[:4])
	}
	h, err := FromGraph6(s)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("P100 round trip failed")
	}
}

func TestGraph6Errors(t *testing.T) {
	// "~??>": a size byte below 63 must not wrap around to n = 255.
	for _, in := range []string{"", "D", "~", "~~A", "A\x01", "\x01", "~??>" + strings.Repeat("?", 5398)} {
		if _, err := FromGraph6(in); err == nil {
			t.Errorf("FromGraph6(%q) accepted", in)
		}
	}
}
