// Package core implements DviCL, the divide-and-conquer canonical-labeling
// algorithm of the paper (Algorithm 1), and the AutoTree index it builds.
//
// DviCL refines the input coloring to an equitable one (Weisfeiler–Lehman),
// then recursively divides the graph with DivideI (isolate singleton cells,
// Algorithm 2) and DivideS (drop color-complete cliques and bicliques,
// Algorithm 3), and combines canonical labelings bottom-up with CombineCL
// (Algorithm 4, delegating non-singleton leaves to an individualization–
// refinement labeler) and CombineST (Algorithm 5). The resulting AutoTree
// preserves the automorphism group of (G, π): each node carries a
// certificate, equal-certificate siblings are symmetric subgraphs, and the
// root's labeling is the canonical labeling of G — the "k-th minimum Gᵞ"
// of Section 5.
package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"unsafe"

	"dvicl/internal/canon"
	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/perm"
)

// Options configures DviCL.
type Options struct {
	// LeafPolicy selects the individualization–refinement engine used for
	// non-singleton leaves — the "X" in the paper's DviCL+X.
	LeafPolicy canon.Policy
	// Budget bounds the whole build: past its deadline or node cap,
	// BuildCtx returns ErrBudgetExceeded and no tree.
	Budget engine.Budget
	// DisableTwinSimplification turns off the structural-equivalence
	// preprocessing of Section 6.1. On by default because real graphs are
	// full of twins.
	DisableTwinSimplification bool
	// DisableDivideS turns off the clique/biclique division (Algorithm 3),
	// leaving DivideI only — an ablation knob for benchmarking the value
	// of DivideS. Results stay correct; trees just get coarser leaves.
	DisableDivideS bool
	// Workers enables parallel construction: the build starts a
	// persistent pool of Workers goroutines with work-stealing deques
	// (see sched.go), and subtrees of a divided node — which are fully
	// independent — run as pool tasks. 0 or 1 means sequential. The
	// resulting tree is byte-for-byte identical at every worker count.
	Workers int
	// Workspace, when non-nil, is the scratch workspace the build's
	// primary worker uses instead of drawing one from the engine pool —
	// callers that build in a tight loop (the bulk-ingest pipeline keeps
	// one checked out per pipeline worker) skip the pool round-trip per
	// Build. It is grown to the graph's size as needed, must not be
	// touched by the caller while the build runs, and is returned in its
	// documented between-uses state. Additional pool workers (Workers >
	// 1) still draw their own workspaces from the engine pool.
	Workspace *engine.Workspace
	// Obs, when non-nil, receives per-phase wall times (refine, twins,
	// divide, combine) and effort counters for the whole build, including
	// every leaf search's. A nil recorder costs one predictable branch
	// per instrumentation point.
	//
	// When the BuildCtx context carries an obs.Trace, the build records
	// into the trace's forwarding recorder instead, which both captures
	// the request's deltas and forwards to the trace's base recorder —
	// so indexd-style callers should create the trace over the same
	// recorder they would have passed here.
	Obs *obs.Recorder
}

// NodeKind distinguishes the three node shapes of an AutoTree.
type NodeKind int

const (
	// KindSingleton is a one-vertex leaf.
	KindSingleton NodeKind = iota
	// KindLeaf is a non-singleton leaf: neither DivideI nor DivideS can
	// disconnect it, so CombineCL labels it with the leaf engine.
	KindLeaf
	// KindInternal is a divided node whose labeling CombineST assembles
	// from its children.
	KindInternal
)

// String names the node kind for dumps, logs and metric labels.
func (k NodeKind) String() string {
	switch k {
	case KindSingleton:
		return "singleton"
	case KindLeaf:
		return "leaf"
	case KindInternal:
		return "internal"
	}
	return "unknown"
}

// DivideKind records which division produced a node's children.
type DivideKind int

const (
	// DividedNone marks leaves.
	DividedNone DivideKind = iota
	// DividedI marks nodes divided by DivideI (singleton-cell axes).
	DividedI
	// DividedS marks nodes divided by DivideS (clique/biclique removal).
	DividedS
)

// String names the division for dumps, logs and metric labels.
func (k DivideKind) String() string {
	switch k {
	case DividedNone:
		return "none"
	case DividedI:
		return "I"
	case DividedS:
		return "S"
	}
	return "unknown"
}

// Node is an AutoTree node: a colored subgraph (g, πg) of (G, π) together
// with its canonical labeling and certificate.
type Node struct {
	// Verts lists the node's vertices (original ids of G), sorted.
	Verts []int
	// Kind is the node shape; Divide says how an internal node was split.
	Kind   NodeKind
	Divide DivideKind
	// Children are ordered by certificate (CombineST's sort); equal-
	// certificate runs of siblings are symmetric subgraphs of G.
	Children []*Node
	// Cert is the node's canonical certificate: equal certs among
	// siblings ⇔ symmetric subgraphs (Lemmas 6.7, 6.8).
	Cert []byte
	// gammaVal[i] is Verts[i]ᵞᵍ, the canonical label of Verts[i] within
	// this node: π(v) plus the rank among same-colored vertices of g.
	gammaVal []int
	// desc is the removal descriptor of the division that produced the
	// children (see combine.go). Only CombineST reads it, during the
	// build, so records do not store it.
	desc []byte
	// localGens holds, for a non-singleton leaf, the automorphism
	// generators of (g, πg) over the node's local vertex order.
	localGens []perm.Perm
	// localGraph is the reduced local graph of a non-singleton leaf.
	localGraph *graph.Graph
	// leafNodes/leafLeaves record the leaf engine's search effort for a
	// non-singleton leaf (canon.Result.Nodes/Leaves). They feed Stats and
	// are not serialized: a loaded tree reports zero effort, since no
	// search ran to produce it.
	leafNodes  int64
	leafLeaves int64
}

// Size returns the number of vertices of the node's subgraph.
func (nd *Node) Size() int { return len(nd.Verts) }

// CanonicalOrder returns the node's vertices ordered by their canonical
// label γg. Matching positions of this order between two equal-certificate
// siblings is the isomorphism γij of Section 5.
func (nd *Node) CanonicalOrder() []int { return vertsByGamma(nd) }

// LeafGraph returns the (reduced) local graph of a non-singleton leaf;
// local vertex i corresponds to Verts[i]. It is nil for other node kinds.
func (nd *Node) LeafGraph() *graph.Graph { return nd.localGraph }

// LeafGenerators returns the automorphism generators of a non-singleton
// leaf over its local vertex order (empty for other node kinds).
func (nd *Node) LeafGenerators() []perm.Perm { return nd.localGens }

// GammaOf returns vᵞᵍ for a vertex of the node (or -1 if v is not here).
func (nd *Node) GammaOf(v int) int {
	i := sort.SearchInts(nd.Verts, v)
	if i < len(nd.Verts) && nd.Verts[i] == v {
		return nd.gammaVal[i]
	}
	return -1
}

// Tree is the AutoTree 𝒜𝒯(G, π) produced by Build.
type Tree struct {
	// Root represents (G, π) itself.
	Root *Node
	// Gamma is the canonical labeling γ* of G: relabeling G by Gamma
	// yields the canonical form.
	Gamma perm.Perm

	sparseGens []perm.Sparse

	g      *graph.Graph
	colors []int // global equitable colors π(v)

	// autOrder is |Aut(G, π)|, computed once by AutOrder.
	autOrderOnce sync.Once
	autOrder     *big.Int
}

// Graph returns the graph the tree was built for.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Generators materializes the automorphism generators of Aut(G, π) as
// dense permutations: within-leaf automorphisms plus sibling-swap
// isomorphisms between equal-certificate siblings. On large graphs prefer
// SparseGenerators — dense generators cost O(n) memory each.
func (t *Tree) Generators() []perm.Perm {
	out := make([]perm.Perm, len(t.sparseGens))
	for i, s := range t.sparseGens {
		out[i] = s.Dense()
	}
	return out
}

// SparseGenerators returns the generators by their moved points only.
func (t *Tree) SparseGenerators() []perm.Sparse { return t.sparseGens }

// Colors returns the global equitable coloring values π(v).
func (t *Tree) Colors() []int { return t.colors }

// Build runs DviCL (Algorithm 1) on the colored graph (g, pi) and returns
// its AutoTree. pi may be nil for the unit coloring; it is not modified.
//
// Build cannot report errors, so it must not be used with a Budget (use
// BuildCtx); it panics if the budget is exceeded or an internal
// invariant breaks.
func Build(g *graph.Graph, pi *coloring.Coloring, opt Options) *Tree {
	t, err := BuildCtx(context.Background(), g, pi, opt)
	if err != nil {
		panic("core.Build: " + err.Error())
	}
	return t
}

// BuildCtx is Build under a context and the Options budget: cancellation
// and the whole-build deadline/node cap are polled at every tree node,
// every refinement round, and every ~64 leaf-search nodes, so a build on
// a pathological graph stops within milliseconds of ctx being canceled.
// It returns engine.ErrCanceled / engine.ErrBudgetExceeded (no partial
// tree — obs counters retain the partial effort), or an
// *engine.InternalError if a structural invariant breaks. A coloring of
// another size than g is an error.
func BuildCtx(ctx context.Context, g *graph.Graph, pi *coloring.Coloring, opt Options) (*Tree, error) {
	n := g.N()
	if pi != nil && pi.N() != n {
		return nil, fmt.Errorf("core: coloring has %d vertices, graph has %d", pi.N(), n)
	}
	if pi == nil {
		pi = coloring.Unit(n)
	} else {
		pi = pi.Clone()
	}
	ctl := engine.NewCtl(ctx, opt.Budget)
	ws := opt.Workspace
	if ws == nil {
		ws = engine.GetWorkspace(n)
		defer engine.PutWorkspace(ws)
	} else {
		ws.Grow(n)
	}
	// A trace on the context redirects observations into its forwarding
	// recorder: the request keeps its own deltas, the original opt.Obs
	// (the trace's base) still sees every increment exactly once.
	_, rec, span := obs.Start(ctx, opt.Obs, obs.PhaseBuild)
	defer span.End()
	opt.Obs = rec
	span.SetAttr("n", int64(n))
	span.SetAttr("m", int64(g.M()))
	ts := span.TraceSpan()
	// Line 1–2 of Algorithm 1: equitable refinement, then color values.
	refineSpan := obs.StartUnder(opt.Obs, ts, obs.PhaseRefine)
	err := pi.RefineWS(g, nil, ws, ctl, opt.Obs)
	refineSpan.End()
	if err != nil {
		return nil, err
	}
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = pi.Color(v)
	}
	t := &Tree{g: g, colors: colors}
	b := &builder{t: t, opt: opt, ctl: ctl}
	if opt.Workers > 1 {
		// The pool outlives the root build call by construction: stop()
		// runs after cl has returned, when every join has completed, so
		// the deques are empty and every spawned goroutine exits. A
		// canceled build stops just as promptly — pending tasks observe
		// the latched error and become no-ops.
		b.sched = newSched(opt.Workers, opt.Obs)
		b.sched.start(n)
		defer b.sched.stop()
	}

	// wk owns this goroutine's workspace and slab; the root subgraph's
	// arena frame spans the whole build and is released (restoring the
	// workspace's fully-released invariant) before ws goes back to the
	// pool.
	wk := &worker{ws: ws}
	if t.Root, err = b.buildSimplified(pi, wk, ts); err != nil {
		return nil, err
	}
	if err := t.derive(); err != nil {
		return nil, err
	}
	return t, nil
}

// derive fills in what a tree never stores: Gamma, a copy of the root's
// labels (root Verts = 0..n-1 in order), and the generators collectGens
// walks out of the tree.
func (t *Tree) derive() error {
	var err error
	if t.sparseGens, err = collectGens(t.g.N(), t.Root); err != nil {
		return err
	}
	t.Gamma = make(perm.Perm, t.g.N())
	copy(t.Gamma, t.Root.gammaVal)
	return nil
}

// Stats summarizes the AutoTree structure — the columns of Tables 3 and 4 —
// plus the aggregate leaf-engine search effort (the paper's "search nodes"
// effort metric, summed over every non-singleton leaf).
type Stats struct {
	Nodes              int
	SingletonLeaves    int
	NonSingletonLeaves int
	AvgLeafSize        float64 // average size of non-singleton leaves
	Depth              int     // edges on the longest root-leaf path
	// LeafSearchNodes is the total number of search-tree nodes the leaf
	// engine visited across all non-singleton leaves.
	LeafSearchNodes int64
	// LeafSearchLeaves is the total number of discrete colorings the leaf
	// engine reached across all non-singleton leaves.
	LeafSearchLeaves int64
}

// Stats computes the Table 3/4 columns for the tree.
func (t *Tree) Stats() Stats {
	var s Stats
	var sizeSum int
	var walk func(nd *Node, depth int)
	walk = func(nd *Node, depth int) {
		s.Nodes++
		if depth > s.Depth {
			s.Depth = depth
		}
		if len(nd.Children) == 0 {
			if nd.Kind == KindSingleton {
				s.SingletonLeaves++
			} else {
				s.NonSingletonLeaves++
				sizeSum += nd.Size()
				s.LeafSearchNodes += nd.leafNodes
				s.LeafSearchLeaves += nd.leafLeaves
			}
			return
		}
		for _, c := range nd.Children {
			walk(c, depth+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 0)
	}
	if s.NonSingletonLeaves > 0 {
		s.AvgLeafSize = float64(sizeSum) / float64(s.NonSingletonLeaves)
	}
	return s
}

// HeapBytes estimates the heap the tree holds: its nodes with their
// vertex, label, child and certificate slices and division descriptors,
// the leaves' generators and local graphs, and the tree's colors, Gamma
// and generators. The tree store charges its memory budget with it.
func (t *Tree) HeapBytes() int64 {
	const word = 8
	size := word * int64(len(t.colors)+len(t.Gamma))
	for _, s := range t.sparseGens {
		size += int64(unsafe.Sizeof(s)) + 2*word*int64(len(s.Moved))
	}
	var walk func(nd *Node)
	walk = func(nd *Node) {
		size += int64(unsafe.Sizeof(*nd)) + int64(len(nd.Cert)+len(nd.desc)) +
			word*int64(len(nd.Verts)+len(nd.gammaVal)+len(nd.Children))
		for _, lg := range nd.localGens {
			size += int64(unsafe.Sizeof(lg)) + word*int64(len(lg))
		}
		if g := nd.localGraph; g != nil {
			size += int64(unsafe.Sizeof(*g)) + 4*int64(g.N()+1+2*g.M())
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return size
}

// CanonicalGraph returns the canonical form G^γ* itself: isomorphic
// graphs produce the identical labeled graph (the canonical
// representative C(G, π) of Section 2).
func (t *Tree) CanonicalGraph() *graph.Graph {
	return t.g.Permute(t.Gamma)
}

// CanonicalCert returns the exact certificate of the canonical form
// (G^γ*, π^γ*): the global cell sizes followed by the relabeled, sorted
// edge list. Two colored graphs are isomorphic iff their CanonicalCerts
// are equal (Theorem 6.9).
func (t *Tree) CanonicalCert() []byte {
	cellSizes := sizesFromColors(t.colors)
	return canon.EncodeCertificate(t.g, t.Gamma, cellSizes)
}

// sizesFromColors returns the cell sizes in color order. Colors are cell
// start offsets below n, so one counting pass finds them.
func sizesFromColors(colors []int) []int {
	counts := make([]int, len(colors))
	for _, c := range colors {
		counts[c]++
	}
	sizes := counts[:0]
	for _, k := range counts {
		if k > 0 {
			sizes = append(sizes, k)
		}
	}
	return sizes
}
