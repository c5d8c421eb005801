package canon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/perm"
)

// encodeCertificateSorted is the certificate encoder as it was before it
// stopped sorting: relabel every edge to a packed (min, max) key, sort
// the keys, append them. It is the oracle the sort-free encoder must
// match byte for byte.
func encodeCertificateSorted(g *graph.Graph, gamma perm.Perm, rootCells []int) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint64(buf, uint64(g.N()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(rootCells)))
	for _, sz := range rootCells {
		buf = binary.BigEndian.AppendUint64(buf, uint64(sz))
	}
	var edges []uint64
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors32(u) {
			if int(w) > u {
				a, b := gamma[u], gamma[int(w)]
				if a > b {
					a, b = b, a
				}
				edges = append(edges, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(edges)
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint64(buf, e)
	}
	return buf
}

// encodeFamilies are the golden benchmark families plus a larger social
// stand-in, the graphs whose leaves the search encodes.
func encodeFamilies(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	pg, err := gen.PG2(7)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cfi-60":      gen.CFI(gen.RigidCubic(60, 41), false),
		"grid-w-3-10": gen.GridW(3, 10),
		"had-64":      gen.Hadamard(64),
		"mz-aug-16":   gen.MzAug(16),
		"pg2-7":       pg,
		"social-3000": gen.Social(gen.SocialConfig{Name: "encode", N: 3000, M: 10000, TwinFrac: 0.12, PendantFrac: 0.18, Seed: 9000}),
	}
}

// randomCells splits n vertices into a random sequence of cell sizes.
func randomCells(r *rand.Rand, n int) []int {
	var cells []int
	for left := n; left > 0; {
		sz := 1 + r.Intn(left)
		cells = append(cells, sz)
		left -= sz
	}
	return cells
}

// TestEncodeCertificateMatchesSortedOracle: the sort-free encoder writes
// exactly the sorted encoder's bytes, on the golden families, random
// graphs and the graphs on 0 and 1 vertices, under the identity and
// random labelings and random root colorings — also when it appends to
// a non-empty buffer and reuses scratch that an earlier, larger graph
// dirtied.
func TestEncodeCertificateMatchesSortedOracle(t *testing.T) {
	graphs := encodeFamilies(t)
	graphs["n0"] = graph.NewBuilder(0).Build()
	graphs["n1"] = graph.NewBuilder(1).Build()
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 20; i++ {
		graphs[fmt.Sprintf("random-%d", i)] = randGraph(r, 1+r.Intn(40), 1+r.Intn(6))
	}
	scratch := make([]int, 1)
	var buf []byte
	for name, g := range graphs {
		n := g.N()
		for k := 0; k < 4; k++ {
			gamma := perm.Identity(n)
			cells := []int{n}
			if n == 0 {
				cells = nil
			}
			if k > 0 {
				gamma = r.Perm(n)
				cells = randomCells(r, n)
			}
			want := encodeCertificateSorted(g, gamma, cells)
			if got := EncodeCertificate(g, gamma, cells); !bytes.Equal(got, want) {
				t.Fatalf("%s labeling %d: EncodeCertificate differs from the sorted encoder", name, k)
			}
			if len(scratch) < 2*n+1 {
				scratch = slices.Grow(scratch, 2*n+1)[:2*n+1]
			}
			for i := range scratch {
				scratch[i] = -1
			}
			buf = append(buf[:0], "prefix"...)
			buf = appendCertificate(buf, g, gamma, cells, scratch[:2*n+1])
			if string(buf[:6]) != "prefix" || !bytes.Equal(buf[6:], want) {
				t.Fatalf("%s labeling %d: appendCertificate into a reused buffer differs", name, k)
			}
		}
	}
}

// BenchmarkEncodeCertificate times one leaf certificate per family under
// a random labeling, encoded as the search encodes leaves: into a reused
// buffer with reused scratch.
func BenchmarkEncodeCertificate(b *testing.B) {
	for name, g := range encodeFamilies(b) {
		gamma := perm.Perm(rand.New(rand.NewSource(1)).Perm(g.N()))
		cells := []int{g.N()}
		scratch := make([]int, 2*g.N()+1)
		b.Run(name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = appendCertificate(buf[:0], g, gamma, cells, scratch)
			}
		})
	}
}
