package ssm

import (
	"bytes"
	"slices"
	"sort"

	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// leafOrbitSM is the paper-faithful variant of the non-singleton-leaf
// base case of Algorithm 6 (line 3): run the subgraph-matching subroutine
// SM to find every induced embedding of the pattern's induced subgraph in
// the leaf, then keep the matches that are actually *symmetric* to the
// pattern (same orbit under Aut(leaf, πg), checked by pattern-certificate
// equality). It returns the same set as leafOrbit; the two are
// cross-checked in tests and benchmarked against each other.
func (ix *Index) leafOrbitSM(ctl *engine.Ctl, nd *core.Node, pattern []int, limit int) ([][]int, error) {
	leafG := nd.LeafGraph()
	colors := ix.tree.Colors()

	// Local indices of the pattern inside the leaf.
	local := make([]int, len(pattern))
	for i, v := range pattern {
		local[i] = sort.SearchInts(nd.Verts, v)
	}
	sort.Ints(local)

	// The query graph's matching constraints: global colors, projected
	// onto the pattern (local ascending order) and onto the whole leaf.
	qColors := make([]int, len(local))
	for i, l := range local {
		qColors[i] = colors[nd.Verts[l]]
	}
	leafColors := make([]int, leafG.N())
	for i, v := range nd.Verts {
		leafColors[i] = colors[v]
	}

	// SM: all induced color-respecting embeddings, deduplicated to vertex
	// sets (different embeddings of the same set differ by a query
	// automorphism).
	m := NewMatcher(leafG, leafColors)
	key, err := ix.leafPatternCert(ctl, nd, pattern)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out [][]int
	var candidates, pruned int64
	for _, emb := range ix.findInducedArena(m, leafG, local, qColors) {
		if err := ctl.Poll(); err != nil {
			return nil, err
		}
		set := CanonicalSet(emb)
		k := intsKey(set)
		if seen[k] {
			continue
		}
		seen[k] = true
		candidates++
		// Symmetry verification: a match is an answer iff it lies in the
		// pattern's orbit under Aut(leaf, πg) — certificate equality (the
		// paper's Lemma 6.7 argument).
		global := make([]int, len(set))
		for i, l := range set {
			global[i] = nd.Verts[l]
		}
		cert, err := ix.leafPatternCert(ctl, nd, global)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(cert, key) {
			pruned++
			continue
		}
		out = append(out, global)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	ix.rec.Add(obs.SSMLeafCandidates, candidates)
	ix.rec.Add(obs.SSMLeafPruned, pruned)
	slices.SortFunc(out, slices.Compare[[]int])
	return out, nil
}

// findInducedArena runs m.FindInduced on the subgraph of leafG induced
// by local (ascending), building the query CSR in the Index workspace's
// arena instead of fresh heap arrays. FindInduced copies every embedding
// it returns, so the arena frame is released before returning and the
// query graph never escapes.
func (ix *Index) findInducedArena(m *Matcher, leafG *graph.Graph, local, qColors []int) [][]int {
	ws := ix.workspace(leafG.N())
	a := &ws.Arena
	mark := a.Mark()
	defer a.Release(mark)
	verts := a.Alloc(len(local))
	idx := ws.LocalIdx
	for i, l := range local {
		verts[i] = int32(l)
		idx[l] = int32(i) + 1
	}
	offsets := a.Alloc(len(local) + 1)
	adj := a.Alloc(leafG.InduceOffsets(verts, idx, offsets))
	leafG.InduceAdj(verts, idx, adj)
	for _, l := range local {
		idx[l] = 0
	}
	q := graph.FromCSR(offsets, adj)
	return m.FindInduced(&q, qColors, 0)
}

func intsKey(xs []int) string {
	buf := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return string(buf)
}

// EnumerateSM is Enumerate with the paper's SM-based leaf handling
// instead of generator-orbit BFS — provided for fidelity to Algorithm 6
// and for cross-validation; results are identical.
func (ix *Index) EnumerateSM(s []int, limit int) [][]int {
	ix.rec.Inc(obs.SSMQueries)
	defer obs.StartUnder(ix.rec, nil, obs.PhaseSSMQuery).End()
	pattern := sortedCopy(s)
	ix.useSM = true
	defer func() { ix.useSM = false }()
	out, err := ix.enumNode(nil, ix.tree.Root, pattern, limit)
	if err != nil {
		panic("ssm.EnumerateSM: " + err.Error())
	}
	return out
}
