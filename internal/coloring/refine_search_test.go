package coloring

import (
	"math/rand"
	"slices"
	"testing"

	"dvicl/internal/engine"
	"dvicl/internal/graph"
)

// randomRegularish returns a union of d random perfect matchings on n
// (even) vertices: nearly regular, so 1-WL leaves large cells whose
// children refine differently.
func randomRegularish(r *rand.Rand, n, d int) *graph.Graph {
	var edges [][2]int
	for k := 0; k < d; k++ {
		p := r.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			edges = append(edges, [2]int{p[i], p[i+1]})
		}
	}
	return graph.FromEdges(n, edges)
}

// TestRefineSearchAbortVerdict: RefineSearch without references refines
// exactly like RefineWS and records its ordered trace. With references, its verdict must agree with comparing that full value
// sequence against them — equal to First, ordered against Best — and it
// may abort only a child that matches neither, after recording a prefix
// of the sequence.
func TestRefineSearchAbortVerdict(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w := engine.GetWorkspace(64)
	defer engine.PutWorkspace(w)
	aborts, kept := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 * (3 + r.Intn(20))
		g := randomRegularish(r, n, 2+r.Intn(3))
		parent := Unit(n)
		if trial%2 == 1 {
			colors := make([][]int, 1+r.Intn(3))
			for v := 0; v < n; v++ {
				k := r.Intn(len(colors))
				colors[k] = append(colors[k], v)
			}
			var cells [][]int
			for _, c := range colors {
				if len(c) > 0 {
					cells = append(cells, c)
				}
			}
			var err error
			if parent, err = FromCells(n, cells); err != nil {
				t.Fatal(err)
			}
		}
		parent.Refine(g, nil)
		start := -1
		for s := 0; s < n; s = parent.CellEnd(s) {
			if parent.CellEnd(s)-s > 1 {
				start = s
				break
			}
		}
		if start < 0 {
			continue
		}
		// Every child of the first non-singleton cell, refined in full.
		type child struct {
			v   int
			seq []uint64
			col *Coloring
		}
		var children []child
		for p := start; p < parent.CellEnd(start); p++ {
			v := parent.LabAt(p)
			plain := parent.Clone()
			s1, s2 := plain.Individualize(v)
			if err := plain.RefineWS(g, []int{s1, s2}, w, nil, nil); err != nil {
				t.Fatal(err)
			}
			c := parent.Clone()
			s1, s2 = c.Individualize(v)
			var seq []uint64
			if _, err := c.RefineSearch(g, []int{s1, s2}, w, nil, nil, &seq, nil); err != nil {
				t.Fatal(err)
			}
			if !c.Equal(plain) {
				t.Fatalf("trial %d: RefineSearch refines differently from RefineWS", trial)
			}
			children = append(children, child{v, seq, c})
		}
		// References: other children's sequences, and perturbations that
		// make a child's own sequence a proper prefix or move one value.
		refSeq := func() []uint64 {
			base := children[r.Intn(len(children))].seq
			switch r.Intn(4) {
			case 0:
				return nil
			case 1:
				return base[:r.Intn(len(base)+1)]
			case 2:
				out := slices.Clone(base)
				i := r.Intn(len(out))
				if r.Intn(2) == 0 {
					out[i]++
				} else {
					out[i]--
				}
				return out
			}
			return base
		}
		for _, ch := range children {
			refs := &Refs{First: refSeq(), Best: refSeq()}
			wantFirst := refs.First != nil && slices.Equal(ch.seq, refs.First)
			wantBest := 1
			if refs.Best != nil {
				wantBest = slices.Compare(ch.seq, refs.Best)
			}
			c := parent.Clone()
			s1, s2 := c.Individualize(ch.v)
			vals := []uint64{42} // values of the levels above
			got, err := c.RefineSearch(g, []int{s1, s2}, w, nil, nil, &vals, refs)
			if err != nil {
				t.Fatal(err)
			}
			if vals[0] != 42 || !slices.Equal(vals[1:], ch.seq[:len(vals)-1]) {
				t.Fatalf("trial %d: recorded values are not a prefix of the full sequence", trial)
			}
			if got.Aborted {
				aborts++
				if wantFirst || wantBest <= 0 {
					t.Fatalf("trial %d: aborted a child that matches a reference (first %v, best %d)", trial, wantFirst, wantBest)
				}
				if got.First || got.Best != 1 {
					t.Fatalf("trial %d: aborted verdict %+v", trial, got)
				}
				continue
			}
			kept++
			if got.First != wantFirst || got.Best != wantBest {
				t.Fatalf("trial %d: verdict %+v, want first %v best %d", trial, got, wantFirst, wantBest)
			}
			if !c.Equal(ch.col) || len(vals)-1 != len(ch.seq) {
				t.Fatalf("trial %d: a refinement that ran to the end differs from the unreferenced one", trial)
			}
		}
	}
	if aborts == 0 || kept == 0 {
		t.Fatalf("%d aborted and %d finished refinements: the test no longer exercises both", aborts, kept)
	}
}
