package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/canon"
	"dvicl/internal/coloring"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/group"
	"dvicl/internal/perm"
)

// fuzzMaxN bounds the vertex count of a fuzzed graph built from bytes.
const fuzzMaxN = 12

// fuzzInput decodes fuzz bytes into a colored graph (g, π) and a
// relabeling σ. Byte 0 picks the graph:
//
//   - below 0x80, n = byte 0 mod 13 and the next ⌈n(n−1)/16⌉ bytes are
//     the edge bits of the pairs u < v in order;
//   - from 0x80, a hard family: even bytes give CFI over RigidCubic(8, s)
//     with s = byte 1, odd ones PG(2,2) (byte 1 unused).
//
// Then 8 bytes seed σ, and one byte per vertex gives its color (mod 4);
// cells are the color classes in ascending color. Missing bytes read 0.
func fuzzInput(data []byte) (*graph.Graph, [][]int, perm.Perm) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	var g *graph.Graph
	next := 2
	if b := at(0); b < 0x80 {
		n := int(b) % (fuzzMaxN + 1)
		var edges [][2]int
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if at(1+bit/8)>>(bit%8)&1 == 1 {
					edges = append(edges, [2]int{u, v})
				}
				bit++
			}
		}
		g = graph.FromEdges(n, edges)
		next = 1 + (bit+7)/8
	} else if b%2 == 0 {
		g = gen.CFI(gen.RigidCubic(8, int64(at(1))), false)
	} else {
		var err error
		if g, err = gen.PG2(2); err != nil {
			panic(err)
		}
	}
	var seed [8]byte
	for i := range seed {
		seed[i] = at(next + i)
	}
	next += len(seed)
	n := g.N()
	sigma := perm.Perm(rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))).Perm(n))
	var byColor [4][]int
	for v := 0; v < n; v++ {
		c := at(next+v) % 4
		byColor[c] = append(byColor[c], v)
	}
	var cells [][]int
	for _, cell := range byColor {
		if len(cell) > 0 {
			cells = append(cells, cell)
		}
	}
	return g, cells, sigma
}

// fuzzSeed encodes a graph of at most fuzzMaxN vertices in fuzzInput's
// byte format, followed by a σ seed and per-vertex colors.
func fuzzSeed(g *graph.Graph, sigmaSeed uint64, colors ...byte) []byte {
	n := g.N()
	out := []byte{byte(n)}
	bits := make([]byte, (n*(n-1)/2+7)/8)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				bits[bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	out = append(out, bits...)
	out = binary.LittleEndian.AppendUint64(out, sigmaSeed)
	return append(out, colors...)
}

// FuzzCanonicalInvariance is an oracle independent of the code under
// test: the certificate of (G, π) must equal that of its relabeling
// (G^σ, π^σ) through core.Build at workers 0 and 2 and through
// canon.Canonical under each policy; every generator must be an
// automorphism of the colored graph, every tree must Verify, and the
// order of the group the generators span (Schreier–Sims) must agree
// across all ten canonicalizations.
func FuzzCanonicalInvariance(f *testing.F) {
	k33 := graph.FromEdges(6, [][2]int{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}})
	petersen := graph.FromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
	})
	f.Add(fuzzSeed(k33, 1))
	f.Add(fuzzSeed(k33, 2, 0, 1, 0, 1, 2, 3))
	f.Add(fuzzSeed(petersen, 3))
	f.Add(fuzzSeed(petersen, 4, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0))
	for s := byte(0); s < 4; s++ {
		f.Add([]byte{0x80, s, 5, 0, 0, 0, 0, 0, 0, 0})
	}
	f.Add([]byte{0x81, 0, 6, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x81, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, cells, sigma := fuzzInput(data)
		gs := g.Permute(sigma)
		cellsS := make([][]int, len(cells))
		for i, cell := range cells {
			for _, v := range cell {
				cellsS[i] = append(cellsS[i], sigma[v])
			}
		}
		type result struct {
			name  string
			cert  []byte
			order *big.Int
		}
		canonicalize := func(h *graph.Graph, hCells [][]int) []result {
			pi := func() *coloring.Coloring {
				c, err := coloring.FromCells(h.N(), hCells)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			var out []result
			check := func(name string, cert []byte, gens []perm.Perm) {
				color := make([]int, h.N())
				for i, cell := range hCells {
					for _, v := range cell {
						color[v] = i
					}
				}
				for _, p := range gens {
					if !h.Permute(p).Equal(h) {
						t.Fatalf("%s: generator %v is not an automorphism", name, p)
					}
					for v, img := range p {
						if color[v] != color[img] {
							t.Fatalf("%s: generator %v moves %d to another cell", name, p, v)
						}
					}
				}
				out = append(out, result{name, cert, group.New(h.N(), gens).Order()})
			}
			for _, workers := range []int{0, 2} {
				tree := Build(h, pi(), Options{Workers: workers})
				if err := tree.Verify(); err != nil {
					t.Fatalf("Build workers=%d: %v", workers, err)
				}
				check(fmt.Sprintf("Build workers=%d", workers), tree.CanonicalCert(), tree.Generators())
			}
			for _, pol := range []canon.Policy{canon.PolicyBliss, canon.PolicyNauty, canon.PolicyTraces} {
				res := canon.Canonical(h, pi(), canon.Options{Policy: pol})
				check("canon "+pol.String(), res.Cert, res.Generators)
			}
			return out
		}
		want, got := canonicalize(g, cells), canonicalize(gs, cellsS)
		for i := range want {
			if !bytes.Equal(want[i].cert, got[i].cert) {
				t.Fatalf("%s: certificate of the relabeled graph differs", want[i].name)
			}
		}
		for _, r := range append(want, got...) {
			if r.order.Cmp(want[0].order) != 0 {
				t.Fatalf("%s: |⟨generators⟩| = %v, but %v under %s", r.name, r.order, want[0].order, want[0].name)
			}
		}
	})
}
