package core

import (
	"reflect"
	"testing"

	"dvicl/internal/coloring"
	"dvicl/internal/graph"
)

// TestWholeClassTwins: twin classes are the cells of the equitable
// coloring whose members all have the same neighbors, keyed by their
// least member with the rest ascending, whatever the order of the cell.
func TestWholeClassTwins(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		cells [][]int // the equitable coloring; nil refines the unit one
		want  map[int][]int
	}{
		{
			// Hub 0 with pendants 5, 1, 3 and a path 0-4-2: refinement
			// separates the path's end 2 from the pendants.
			name: "pendants on a hub",
			g:    graph.FromEdges(6, [][2]int{{0, 5}, {0, 1}, {0, 3}, {0, 4}, {4, 2}}),
			want: map[int][]int{1: {3, 5}},
		},
		{
			// K2,3 with sides {4, 1} and {3, 0, 2}, each cell listed out
			// of order: both sides are twins.
			name:  "K2,3",
			g:     graph.FromEdges(5, [][2]int{{4, 3}, {4, 0}, {4, 2}, {1, 3}, {1, 0}, {1, 2}}),
			cells: [][]int{{4, 1}, {3, 0, 2}},
			want:  map[int][]int{1: {4}, 0: {2, 3}},
		},
		{
			// C6 is one cell, but no two of its vertices share neighbors.
			name: "C6",
			g:    cycle(6),
			want: nil,
		},
	} {
		pi := coloring.Unit(tc.g.N())
		if tc.cells != nil {
			var err error
			if pi, err = coloring.FromCells(tc.g.N(), tc.cells); err != nil {
				t.Fatal(err)
			}
		} else {
			pi.Refine(tc.g, nil)
		}
		if got := wholeClassTwins(tc.g, pi); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: twins = %v, want %v", tc.name, got, tc.want)
		}
	}
}
