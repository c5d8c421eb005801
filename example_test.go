package dvicl_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"dvicl"
	"dvicl/internal/gen"
)

// ExampleIsomorphic shows the canonical-certificate isomorphism test on a
// pair that degree sequences alone cannot separate.
func ExampleIsomorphic() {
	c6 := dvicl.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	twoTriangles := dvicl.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	relabeled := c6.Permute([]int{3, 0, 5, 1, 4, 2})

	fmt.Println(dvicl.Isomorphic(c6, twoTriangles))
	fmt.Println(dvicl.Isomorphic(c6, relabeled))
	// Output:
	// false
	// true
}

// ExampleBuildAutoTree demonstrates the AutoTree on the paper's running
// example (Fig. 1(a)).
func ExampleBuildAutoTree() {
	g := dvicl.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 4},
		{0, 7}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7},
	})
	tree := dvicl.BuildAutoTree(g, nil, dvicl.Options{})
	fmt.Println("|Aut| =", tree.AutOrder())
	for _, orbit := range tree.Orbits() {
		fmt.Println("orbit:", orbit)
	}
	// Output:
	// |Aut| = 48
	// orbit: [0 1 2 3]
	// orbit: [4 5 6]
	// orbit: [7]
}

// ExampleSSMIndex_CountImages counts symmetric counterparts of a vertex
// set — the paper's seed-set application.
func ExampleSSMIndex_CountImages() {
	// A hub with 6 interchangeable pendants.
	g := dvicl.FromEdges(7, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}})
	ix := dvicl.NewSSMIndex(dvicl.BuildAutoTree(g, nil, dvicl.Options{}))
	fmt.Println(ix.CountImages([]int{1}))       // any single pendant
	fmt.Println(ix.CountImages([]int{1, 2}))    // any pendant pair: C(6,2)
	fmt.Println(ix.CountImages([]int{0, 1, 2})) // hub + pair
	// Output:
	// 6
	// 15
	// 15
}

// ExampleGraphIndex demonstrates certificate-based graph indexing — the
// paper's database application: every graph gets a certificate such that
// two graphs are isomorphic iff the certificates are equal, so duplicate
// detection and isomorphism lookup are map operations. (For a durable
// index that survives restarts, see OpenGraphIndex and cmd/indexd.)
func ExampleGraphIndex() {
	ix := dvicl.NewGraphIndex(dvicl.Options{})
	c4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	p4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})

	id, dup, _ := ix.Add(c4)
	fmt.Println(id, dup)
	id, dup, _ = ix.Add(c4.Permute([]int{2, 0, 3, 1})) // a relabeled C4
	fmt.Println(id, dup)
	id, dup, _ = ix.Add(p4)
	fmt.Println(id, dup)

	fmt.Println(ix.Lookup(c4))          // both C4 copies
	fmt.Println(ix.Len(), ix.Classes()) // 3 graphs, 2 classes
	// Output:
	// 0 false
	// 1 true
	// 2 false
	// [0 1]
	// 3 2
}

// ExampleTrace captures a request-scoped span tree for one certificate
// build on a small CFI graph (the paper's hard family for refinement
// alone). The trace records where the build spent its time — refinement,
// divisions, leaf searches — plus this request's own counter deltas,
// without changing the certificate in any way.
func ExampleTrace() {
	g := gen.CFI(gen.RigidCubic(8, 1), false)

	tr := dvicl.NewTrace("req-42", nil)
	ctx := dvicl.WithTrace(context.Background(), tr)
	cert, err := dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{})
	if err != nil {
		panic(err)
	}
	tr.Root().End()

	snap := tr.Snapshot()
	fmt.Println("trace:", snap.ID)
	fmt.Println(snap.Spans.Name)
	build := snap.Spans.Children[0]
	fmt.Println("-", build.Name)
	fmt.Println("  -", build.Children[0].Name)
	fmt.Println("build span graph size:", build.Attrs["n"])
	fmt.Println("refinement recorded:", snap.Counters["refine_calls"] > 0)
	fmt.Println("certificate unchanged:", bytes.Equal(cert, dvicl.CanonicalCert(g, nil, dvicl.Options{})))
	// Output:
	// trace: req-42
	// request
	// - build
	//   - refine
	// build span graph size: 80
	// refinement recorded: true
	// certificate unchanged: true
}

// ExampleBudget bounds a build on a Miyazaki-like graph (a family built
// to force backtracking search). The budget covers the whole build, and
// a build that exceeds it returns ErrBudgetExceeded and no tree: every
// tree a build returns carries an exact certificate.
func ExampleBudget() {
	g := gen.MzAug(12)

	// The whole build may visit at most 5 search nodes.
	tree, err := dvicl.BuildAutoTreeCtx(context.Background(), g, nil,
		dvicl.Options{Budget: dvicl.Budget{MaxNodes: 5}})
	fmt.Println(tree == nil, errors.Is(err, dvicl.ErrBudgetExceeded))
	// Output:
	// true true
}

// ExampleOpenGraphIndex_sharded partitions an in-memory index (empty
// directory) into 4 shards. Shard routing is by certificate hash, so an
// isomorphism class lives entirely on one shard and Lookup reads a
// single shard; global ids are local·shards+shard, deterministic for a
// fixed shard count.
func ExampleOpenGraphIndex_sharded() {
	ix, err := dvicl.OpenGraphIndex("", dvicl.IndexOptions{Shards: 4})
	if err != nil {
		panic(err)
	}
	defer ix.Close()
	c4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	p4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})

	id, dup, _ := ix.Add(c4) // class hashes to shard 2: id = 0·4+2
	fmt.Println(id, dup)
	id, dup, _ = ix.Add(c4.Permute([]int{2, 0, 3, 1})) // same shard: 1·4+2
	fmt.Println(id, dup)
	id, dup, _ = ix.Add(p4) // different class, shard 0
	fmt.Println(id, dup)

	fmt.Println(ix.Lookup(c4))
	fmt.Println(ix.Len(), ix.Classes())
	// Output:
	// 2 false
	// 6 true
	// 0 false
	// [2 6]
	// 3 2
}

// ExampleAutomorphismGroup extracts generators and verifies one.
func ExampleAutomorphismGroup() {
	p4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	gens, order := dvicl.AutomorphismGroup(p4)
	fmt.Println("order:", order)
	fmt.Println("generator:", gens[0])
	// Output:
	// order: 2
	// generator: (0,3)(1,2)
}

// ExampleColoringFromCells shows colored-graph (labeled-vertex)
// isomorphism: colors restrict which vertices may map to which.
func ExampleColoringFromCells() {
	c4 := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	plain := dvicl.BuildAutoTree(c4, nil, dvicl.Options{})
	pi, _ := dvicl.ColoringFromCells(4, [][]int{{0, 2}, {1, 3}})
	colored := dvicl.BuildAutoTree(c4, pi, dvicl.Options{})
	fmt.Println(plain.AutOrder(), colored.AutOrder())
	// Output:
	// 8 4
}
