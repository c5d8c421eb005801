// Package canon implements a canonical-labeling algorithm of the
// individualization–refinement family described in Section 4 of the paper:
// a backtrack search tree whose nodes are equitable colorings, with a
// target cell selector T, a node invariant φ (the ordered refinement
// trace), the three prunings P_A (first-path), P_B (best-path) and P_C
// (orbit), and automorphism discovery against the leftmost leaf and the
// best leaf, each followed by a backjump to the two leaves' deepest
// common ancestor. A child's refinement stops as soon as its trace rules
// the child out (Piperno's Traces, arXiv 0804.4881).
//
// It plays the role of nauty, bliss and traces in the paper's evaluation.
// The three tools differ chiefly in their target cell selector, so this
// package exposes the three published policies and the benchmark harness
// runs all of them, like Table 5 and Table 8 do.
//
// Concurrency: every search allocates its own per-call state struct and
// touches shared memory only through the engine.Workspace it is handed
// (refinement buffers and write-before-read scratch — never ws.Arena),
// so concurrent searches over distinct workspaces are safe. This is what
// lets core's work-stealing scheduler run a stolen leaf search in the
// thief's workspace while the victim's arena frames stay open.
package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/perm"
)

// Policy selects the target cell selector T.
type Policy int

const (
	// PolicyBliss individualizes in the first non-singleton cell,
	// regardless of size (the choice of Kocay [18] that bliss follows).
	PolicyBliss Policy = iota
	// PolicyNauty individualizes in the first smallest non-singleton cell
	// (nauty's default [26]).
	PolicyNauty
	// PolicyTraces individualizes in the largest non-singleton cell
	// (ties broken by position), echoing traces' preference for wide,
	// shallow trees.
	PolicyTraces
)

// String names the policy after the tool it emulates.
func (p Policy) String() string {
	switch p {
	case PolicyBliss:
		return "bliss"
	case PolicyNauty:
		return "nauty"
	case PolicyTraces:
		return "traces"
	}
	return "unknown"
}

// Options configures the search.
type Options struct {
	Policy Policy
	// Obs, when non-nil, receives the search-effort counters (nodes,
	// leaves, prunings, automorphisms, backjumps, truncations) and the
	// refinement counters of every Refine the search performs. Search
	// counts are accumulated locally and flushed once per Canonical call.
	Obs *obs.Recorder
	// Span, when non-nil, receives the search-effort summary as trace
	// attributes (nodes, leaves, automorphisms, truncated) when the search
	// ends. The caller owns the span's lifetime. Nil-safe.
	Span *obs.TraceSpan
}

// Result is the outcome of a canonical-labeling search.
type Result struct {
	// Canon is the canonical labeling γ*: relabeling g by Canon yields the
	// canonical form.
	Canon perm.Perm
	// Cert is the certificate of the canonical form: two colored graphs
	// are isomorphic iff their Certs are equal (Section 2's definition of
	// a canonical representative).
	Cert []byte
	// Generators generate the automorphism group Aut(G, π).
	Generators []perm.Perm
	// Nodes is the number of search-tree nodes visited.
	Nodes int64
	// Leaves is the number of leaves (discrete colorings) reached.
	Leaves int64
	// PruneBestPath counts subtrees cut by the best-path invariant (P_B):
	// the trace exceeded the current canonical candidate's, or the path
	// had already left the candidate's path above.
	PruneBestPath int64
	// PruneOrbit counts candidates cut by orbit pruning (P_C).
	PruneOrbit int64
	// Backjumps counts automorphism backjumps taken: after a leaf yields a
	// new generator against the leftmost or the best leaf, the search
	// returns to the two leaves' deepest common ancestor.
	Backjumps int64
}

// Canonical computes the canonical labeling of the colored graph (g, pi).
// pi may be nil for the unit coloring. pi is not modified.
// It panics if pi does not color g's vertices; a nil Ctl never stops the
// search, so that is the only error CanonicalCtl can return here.
func Canonical(g *graph.Graph, pi *coloring.Coloring, opt Options) Result {
	res, err := CanonicalCtl(nil, nil, g, pi, opt)
	if err != nil {
		panic("canon.Canonical: " + err.Error())
	}
	return res
}

// CanonicalCtl is Canonical under an engine controller: ctl is ticked on
// every search-tree node (whole-build node budget, cancellation), and
// the search refines in ws rather than allocating. On ErrCanceled /
// ErrBudgetExceeded the Result carries the partial effort statistics but
// no labeling, and a search the budget stopped counts one truncation. A
// coloring of another size than g is an error. ctl and ws may be nil (ws
// is then drawn from the engine pool); ws must not be shared with a
// concurrent search.
func CanonicalCtl(ctl *engine.Ctl, ws *engine.Workspace, g *graph.Graph, pi *coloring.Coloring, opt Options) (Result, error) {
	n := g.N()
	if pi != nil && pi.N() != n {
		return Result{}, fmt.Errorf("canon: coloring has %d vertices, graph has %d", pi.N(), n)
	}
	if pi == nil {
		pi = coloring.Unit(n)
	} else {
		pi = pi.Clone()
	}
	if ws == nil {
		ws = engine.GetWorkspace(n)
		defer engine.PutWorkspace(ws)
	}
	s := &search{g: g, opt: opt, ctl: ctl, ws: ws, n: n, rootCells: cellSizes(pi), backjump: -1, vals: ws.Trace[:0]}
	// The root refinement is common to every leaf, so its ordered trace
	// is never compared and is left empty.
	if err := pi.RefineWS(g, nil, ws, ctl, opt.Obs); err != nil {
		s.stopErr = err
	} else {
		s.ends = append(s.ends, 0)
		s.run(pi)
	}
	ws.Trace = s.vals[:0]
	res := Result{
		Generators:    s.gens,
		Nodes:         s.nodes,
		Leaves:        s.leaves,
		PruneBestPath: s.pruneBest,
		PruneOrbit:    s.pruneOrbit,
		Backjumps:     s.backjumps,
	}
	if s.stopErr == nil {
		res.Canon = s.best.gamma
		res.Cert = s.best.cert
	}
	truncated := errors.Is(s.stopErr, engine.ErrBudgetExceeded)
	if rec := opt.Obs; rec != nil {
		rec.Add(obs.SearchNodes, res.Nodes)
		rec.Add(obs.SearchLeaves, res.Leaves)
		rec.Add(obs.PruneBestPath, res.PruneBestPath)
		rec.Add(obs.PruneOrbit, res.PruneOrbit)
		rec.Add(obs.Automorphisms, int64(len(res.Generators)))
		rec.Add(obs.Backjumps, res.Backjumps)
		if truncated {
			rec.Inc(obs.Truncations)
		}
	}
	opt.Span.SetAttr("nodes", res.Nodes)
	opt.Span.SetAttr("leaves", res.Leaves)
	opt.Span.SetAttr("automorphisms", int64(len(res.Generators)))
	if truncated {
		opt.Span.SetAttr("truncated", 1)
	}
	return res, s.stopErr
}

// leaf records a discrete coloring reached by the search. The search
// keeps two, the first and the best leaf; the leaf being visited is a
// view of the search's stacks and scratch buffers until it replaces one.
type leaf struct {
	gamma perm.Perm
	inv   perm.Perm // γ⁻¹, set on kept leaves for automorphisms against them
	cert  []byte
	vals  []uint64 // the ordered trace: every level's values, concatenated
	ends  []int    // level i's values end at vals[ends[i]]
	path  []int
}

// level returns the ordered trace of the refinement at depth i.
func (l *leaf) level(i int) []uint64 {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.vals[start:l.ends[i]]
}

// keep copies a visited leaf out of the search's buffers.
func (l *leaf) keep() *leaf {
	return &leaf{
		gamma: slices.Clone(l.gamma),
		inv:   l.gamma.Inverse(),
		cert:  slices.Clone(l.cert),
		vals:  slices.Clone(l.vals),
		ends:  slices.Clone(l.ends),
		path:  slices.Clone(l.path),
	}
}

type search struct {
	g         *graph.Graph
	opt       Options
	ctl       *engine.Ctl
	ws        *engine.Workspace
	n         int
	rootCells []int

	first *leaf // leftmost leaf: reference for automorphism discovery (P_A)
	best  *leaf // current canonical candidate (P_B)

	gens []perm.Perm
	// moved lists, per generator, the points it moves: all the orbit
	// pruner needs of it.
	moved      [][]int
	genSet     map[string]bool // packed-image dedup keys of gens
	nodes      int64
	leaves     int64
	pruneBest  int64
	pruneOrbit int64
	backjumps  int64
	// stopErr latches the controller's ErrCanceled/ErrBudgetExceeded; the
	// recursion unwinds without visiting further nodes once it is set.
	stopErr error
	// backjump, when ≥ 0, unwinds the recursion to the node at that
	// depth: the fork jumpToFork set after an automorphism against the
	// leftmost or the best leaf.
	backjump int

	// vals, ends and path are the shared depth stacks of the recursion:
	// at a node of depth d, vals holds the d+1 levels' ordered traces
	// from the root, concatenated (level i ends at ends[i]; the buffer is
	// the workspace's Trace), and path the d individualized vertices. run
	// pushes before recursing and pops after, so only kept leaves copy
	// them.
	vals []uint64
	ends []int
	path []int
	// onBest is how many levels of the current path's ordered trace
	// equal the best leaf's, kept from the verdicts the search already
	// gets: keepChild raises it for a child equal to the best leaf's
	// level, a new first or best leaf sets it to its depth, and unwinding
	// to a node clamps it to the node's levels. A path whose trace left
	// the best leaf's is above it, since one below makes keepChild drop
	// the best; and equal traces end at equal depths, since a discrete
	// coloring's final fold is all singletons.
	onBest int
	// refs is the buffer childRefs fills for each child.
	refs coloring.Refs
	// gamma, delta, cert, key and certScratch are per-leaf scratch: the
	// leaf's labeling, a candidate automorphism, the leaf's certificate,
	// a generator's dedup key and the certificate encoder's scratch.
	gamma, delta perm.Perm
	cert, key    []byte
	certScratch  []int
	// free is the coloring free-list: child colorings are drawn with
	// getColoring (CopyFrom instead of Clone) and returned after their
	// subtree finishes, so steady-state descent allocates no colorings.
	free []*coloring.Coloring
	// pruners is the orbitPruner free-list, same discipline.
	pruners []*orbitPruner
	// seed is the Individualize seed-pair buffer passed to RefineSearch.
	seed [2]int
}

// getColoring returns a coloring equal to src, reusing a free-listed one
// when available. The caller must putColoring it when its subtree is done.
func (s *search) getColoring(src *coloring.Coloring) *coloring.Coloring {
	if k := len(s.free); k > 0 {
		c := s.free[k-1]
		s.free = s.free[:k-1]
		c.CopyFrom(src)
		return c
	}
	return src.Clone()
}

func (s *search) putColoring(c *coloring.Coloring) {
	s.free = append(s.free, c)
}

func cellSizes(c *coloring.Coloring) []int {
	sizes := make([]int, 0, c.NumCells())
	for st := 0; st < c.N(); st = c.CellEnd(st) {
		sizes = append(sizes, c.CellEnd(st)-st)
	}
	return sizes
}

// run explores the subtree rooted at the node with coloring c; s.vals
// and s.path hold the node's ordered trace and individualization sequence
// ν (Section 4) as shared stacks.
func (s *search) run(c *coloring.Coloring) {
	if s.stopErr != nil {
		return
	}
	s.nodes++
	if err := s.ctl.Tick(1); err != nil {
		s.stopErr = err
		return
	}
	if c.IsDiscrete() {
		s.visitLeaf(c)
		return
	}
	target := s.targetCell(c)
	// Orbit pruning P_C: skip a candidate v if an automorphism discovered
	// so far fixes the whole path and maps an already-explored candidate
	// to v. The orbit partition is rebuilt lazily whenever new generators
	// have arrived (they are discovered while exploring earlier children).
	pruner := s.getPruner()
	level := len(s.ends)
	for _, v := range target {
		if s.stopErr != nil {
			break
		}
		if pruner.pruned(s.gens, s.moved, v) {
			s.pruneOrbit++
			continue
		}
		child := s.getColoring(c)
		s.seed[0], s.seed[1] = child.Individualize(v)
		mark := len(s.vals)
		refs := s.childRefs(level)
		verdict, err := child.RefineSearch(s.g, s.seed[:], s.ws, s.ctl, s.opt.Obs, &s.vals, refs)
		if err != nil {
			s.stopErr = err
			s.putColoring(child)
			break
		}
		if !s.keepChild(refs, verdict, level) {
			s.vals = s.vals[:mark]
			s.putColoring(child)
			pruner.markExplored(v)
			continue
		}
		s.ends = append(s.ends, len(s.vals))
		s.path = append(s.path, v)
		s.run(child)
		s.ends = s.ends[:level]
		s.path = s.path[:level-1]
		s.vals = s.vals[:mark]
		s.onBest = min(s.onBest, level)
		s.putColoring(child)
		pruner.markExplored(v)
		if s.backjump >= 0 {
			if len(s.path) > s.backjump {
				break // keep unwinding to the common ancestor
			}
			s.backjump = -1 // we are the fork node: resume siblings
		}
	}
	s.putPruner(pruner)
}

// orbitPruner maintains, for one search-tree node, the orbit partition of
// the vertices under the discovered automorphisms that fix the node's
// path pointwise (the subgroup relevant to P_C). It rebuilds only when
// the global generator list has grown.
type orbitPruner struct {
	n        int
	path     []int
	genCount int
	inited   bool
	parent   []int
	// marked[r] is set on each orbit root r whose orbit holds an explored
	// candidate (valid once inited), so a prune test is one find.
	marked   []bool
	explored []int
}

// getPruner returns a pruner for the current node (path = s.path),
// reusing a free-listed one when available; the union-find is still
// initialized lazily on the first pruned() that has generators to apply.
func (s *search) getPruner() *orbitPruner {
	var o *orbitPruner
	if k := len(s.pruners); k > 0 {
		o = s.pruners[k-1]
		s.pruners = s.pruners[:k-1]
	} else {
		o = &orbitPruner{}
	}
	o.n = s.n
	o.path = append(o.path[:0], s.path...)
	o.explored = o.explored[:0]
	o.genCount = 0
	o.inited = false
	return o
}

func (s *search) putPruner(o *orbitPruner) {
	s.pruners = append(s.pruners, o)
}

func (o *orbitPruner) find(x int) int {
	for o.parent[x] != x {
		o.parent[x] = o.parent[o.parent[x]]
		x = o.parent[x]
	}
	return x
}

// update applies any generators added since the last call to the orbit
// union-find. Unions are monotone, so incorporating only the new
// path-fixing generators is equivalent to a full rebuild, and each costs
// only its moved points.
func (o *orbitPruner) update(gens []perm.Perm, moved [][]int) {
	if !o.inited {
		if cap(o.parent) < o.n {
			o.parent = make([]int, o.n)
			o.marked = make([]bool, o.n)
		}
		o.parent = o.parent[:o.n]
		o.marked = o.marked[:o.n]
		for i := range o.parent {
			o.parent[i] = i
		}
		clear(o.marked)
		for _, u := range o.explored {
			o.marked[u] = true
		}
		o.genCount = 0
		o.inited = true
	}
	for i, g := range gens[o.genCount:] {
		if !fixesPath(g, o.path) {
			continue
		}
		for _, v := range moved[o.genCount+i] {
			ra, rb := o.find(v), o.find(g[v])
			if ra != rb {
				o.parent[rb] = ra
				o.marked[ra] = o.marked[ra] || o.marked[rb]
			}
		}
	}
	o.genCount = len(gens)
}

// pruned reports whether v shares an orbit with an already-explored
// sibling candidate under the current path-fixing subgroup.
func (o *orbitPruner) pruned(gens []perm.Perm, moved [][]int, v int) bool {
	if len(o.explored) == 0 || len(gens) == 0 {
		return false
	}
	if !o.inited || len(gens) != o.genCount {
		o.update(gens, moved)
	}
	return o.marked[o.find(v)]
}

func (o *orbitPruner) markExplored(v int) {
	o.explored = append(o.explored, v)
	if o.inited {
		o.marked[o.find(v)] = true
	}
}

// childRefs returns the references a child at the given level is
// compared with while it refines, or nil while there is no best leaf
// (every child is then kept). The first leaf's trace at that level is
// always a reference. The best leaf's is one only while the node's own
// trace equals the best path's prefix (onBest == level): a node whose
// path already diverged above (kept only because it follows the first
// path, for P_A) cannot lead to the canonical leaf, however small its
// trace is here.
func (s *search) childRefs(level int) *coloring.Refs {
	if s.best == nil {
		return nil
	}
	s.refs = coloring.Refs{}
	if level < len(s.first.ends) {
		s.refs.First = s.first.level(level)
	}
	if s.onBest == level {
		s.refs.Best = s.best.level(level)
	}
	return &s.refs
}

// keepChild implements the invariant prunings P_A and P_B: a child is
// explored iff its trace can still lead to an automorphism with the
// leftmost leaf (trace equals the first path's at this level) or to the
// canonical leaf (trace not greater than the best path's at this level).
// A child whose trace is *smaller* than the best path's invalidates the
// current best candidate (the canonical form is the minimum (ordered
// trace, cert) over all leaves), also when the child follows the first
// path. A refinement the ordered trace aborted is exactly a child this
// rejects.
func (s *search) keepChild(refs *coloring.Refs, v coloring.Verdict, level int) bool {
	switch {
	case refs == nil:
		return true
	case v.Best < 0:
		// Everything under this child lexicographically precedes the
		// current best: the best is stale.
		s.best = nil
		return true
	case v.Best == 0:
		s.onBest = level + 1
		return true
	case v.First:
		return true
	}
	s.pruneBest++
	return false
}

// visitLeaf handles a discrete coloring: computes the leaf certificate,
// discovers automorphisms against the reference leaves, and updates the
// canonical candidate. The leaf is labeled and encoded into the search's
// scratch buffers and copied out only when it becomes the first or the
// best leaf.
func (s *search) visitLeaf(c *coloring.Coloring) {
	s.leaves++
	s.gamma = slices.Grow(s.gamma[:0], s.n)[:s.n]
	for p := range s.gamma {
		s.gamma[c.LabAt(p)] = p
	}
	s.certScratch = slices.Grow(s.certScratch[:0], 2*s.n+1)[:2*s.n+1]
	s.cert = appendCertificate(s.cert[:0], s.g, s.gamma, s.rootCells, s.certScratch)
	l := &leaf{gamma: s.gamma, cert: s.cert, vals: s.vals, ends: s.ends, path: s.path}
	if s.first == nil {
		s.first = l.keep()
		s.best = s.first
		s.onBest = len(s.ends)
		return
	}
	if bytes.Equal(l.cert, s.first.cert) && s.addAutomorphism(l.gamma, s.first) {
		s.jumpToFork(l, s.first)
	}
	if s.best == nil {
		s.best = l.keep()
		s.onBest = len(s.ends)
		return
	}
	if s.onBest < len(s.ends) {
		return // its trace left the best leaf's, above it
	}
	// Leaves order by (ordered trace, certificate), so a leaf whose every
	// level equals the best leaf's is ordered by certificate. A change to
	// this order, to the trace or to the certificate encoding moves
	// certificates, and must come with a new store.CertScheme.
	switch order := bytes.Compare(l.cert, s.best.cert); {
	case order < 0:
		s.best = l.keep()
	case order == 0:
		// Same canonical candidate reached along a different path: an
		// automorphism relating the two leaves. A leaf takes at most one
		// backjump, so a jump set against the first leaf stands.
		if s.addAutomorphism(l.gamma, s.best) && s.backjump < 0 {
			s.jumpToFork(l, s.best)
		}
	}
}

// jumpToFork backjumps to the deepest common ancestor of leaf l and an
// earlier leaf ref with the same certificate. The automorphism
// δ = γ_l ∘ γ_ref⁻¹ maps l's path onto ref's (distinct paths end in
// distinct discrete colorings), so δ fixes their common prefix and maps
// l's ancestor one level below the fork onto ref's ancestor there, whose
// subtree the depth-first search has already finished. The rest of l's
// subtree holds only images of leaves already seen: no new canonical
// candidate, and only automorphisms the generators already derive.
func (s *search) jumpToFork(l, ref *leaf) {
	cp := 0
	for cp < len(l.path) && cp < len(ref.path) && l.path[cp] == ref.path[cp] {
		cp++
	}
	s.backjump = cp
	s.backjumps++
}

// addAutomorphism records δ = γ' ∘ γ_ref⁻¹ (apply γ' first), the
// automorphism implied by two leaves with identical certificates. It
// reports whether a new non-identity generator was recorded. δ is built
// in scratch and deduplicated by its packed images, so only a new
// generator allocates, and the cost stays linear in n however many
// generators a symmetric graph produces.
func (s *search) addAutomorphism(gammaNew perm.Perm, ref *leaf) bool {
	s.delta = slices.Grow(s.delta[:0], s.n)[:s.n]
	s.key = s.key[:0]
	identity := true
	for v, img := range gammaNew {
		d := ref.inv[img]
		s.delta[v] = d
		identity = identity && d == v
		s.key = binary.BigEndian.AppendUint32(s.key, uint32(d))
	}
	if identity || s.genSet[string(s.key)] {
		return false
	}
	if s.genSet == nil {
		s.genSet = make(map[string]bool)
	}
	s.genSet[string(s.key)] = true
	delta := slices.Clone(s.delta)
	var moved []int
	for v, img := range delta {
		if v != img {
			moved = append(moved, v)
		}
	}
	s.gens = append(s.gens, delta)
	s.moved = append(s.moved, moved)
	return true
}

func fixesPath(g perm.Perm, path []int) bool {
	for _, v := range path {
		if g[v] != v {
			return false
		}
	}
	return true
}

// targetCell implements the selector T for the configured policy,
// returning the chosen non-singleton cell's vertices in ascending order.
// Only the chosen cell is materialized (one allocation per node); the
// scan walks the cell runs in place. Candidate order must stay ascending
// — the canonical result depends on the order children are explored.
func (s *search) targetCell(c *coloring.Coloring) []int {
	n := c.N()
	chosen, size := -1, 0
	switch s.opt.Policy {
	case PolicyBliss:
		// First non-singleton cell (Kocay's choice).
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 {
				chosen, size = st, sz
				break
			}
		}
	case PolicyNauty:
		// First smallest non-singleton cell.
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 && (chosen < 0 || sz < size) {
				chosen, size = st, sz
			}
		}
	case PolicyTraces:
		// Largest non-singleton cell, ties broken by position.
		for st := 0; st < n; st = c.CellEnd(st) {
			if sz := c.CellEnd(st) - st; sz > 1 && sz > size {
				chosen, size = st, sz
			}
		}
	}
	if chosen < 0 {
		return nil
	}
	cell := make([]int, size)
	for i := range cell {
		cell[i] = c.LabAt(chosen + i)
	}
	slices.Sort(cell)
	return cell
}

// EncodeCertificate serializes (n, cell sizes, sorted γ-image edge list)
// into a byte string ordered consistently with the lexicographic edge-list
// order the paper uses for G^γ. Certificates of two colored graphs are
// equal iff the colored graphs are identical after relabeling, which is
// what Section 2 requires of a canonical representative.
func EncodeCertificate(g *graph.Graph, gamma perm.Perm, rootCells []int) []byte {
	dst := make([]byte, 0, 8*(2+len(rootCells)+g.M()))
	return appendCertificate(dst, g, gamma, rootCells, make([]int, 2*g.N()+1))
}

// appendCertificate appends EncodeCertificate's bytes to dst without
// sorting. Every edge {u, w} becomes the key (a, b) = (γ(u), γ(w)) with
// a < b, and the keys appear in ascending order. One pass inverts γ and
// counts each label a's higher-labeled neighbours; the prefix sums of
// the counts give row a's first slot. Then b walks 0…n−1 through γ⁻¹,
// writing each (a, b) with a < b into row a's next slot, so every row
// fills in ascending b. scratch must hold 2n+1 ints.
func appendCertificate(dst []byte, g *graph.Graph, gamma perm.Perm, rootCells []int, scratch []int) []byte {
	n := g.N()
	next, inv := scratch[:n+1], scratch[n+1:2*n+1]
	dst = binary.BigEndian.AppendUint64(dst, uint64(n))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(rootCells)))
	for _, sz := range rootCells {
		dst = binary.BigEndian.AppendUint64(dst, uint64(sz))
	}
	next[0] = 0
	for u, a := range gamma {
		inv[a] = u
		higher := 0
		for _, w := range g.Neighbors32(u) {
			if gamma[w] > a {
				higher++
			}
		}
		next[a+1] = higher
	}
	for a := 1; a <= n; a++ {
		next[a] += next[a-1]
	}
	header := len(dst)
	dst = slices.Grow(dst, 8*next[n])[:header+8*next[n]]
	edges := dst[header:]
	for b, u := range inv {
		for _, w := range g.Neighbors32(u) {
			if a := gamma[w]; a < b {
				binary.BigEndian.PutUint64(edges[8*next[a]:], uint64(a)<<32|uint64(b))
				next[a]++
			}
		}
	}
	return dst
}
