package dvicl

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"dvicl/internal/obs"
	"dvicl/internal/ssm"
)

// Symmetry-query serving: answer orbit / automorphism-group / quotient /
// SSM questions about an *indexed* graph without rebuilding its AutoTree
// per request. The index stores certificates, and a DviCL certificate is
// fully decodable back into the canonical graph (canon.DecodeCertificate),
// so the tree store can recover — and cache — the class's AutoTree from
// the certificate alone. Answers are therefore class-level, phrased in
// canonical vertex space: every graph of one isomorphism class maps to
// the same canonical graph, and the reply describes that graph. Callers
// holding an original labeling translate through the γ returned by
// FindIsomorphism if they need original vertex ids.

// ErrUnknownID is returned by the symmetry queries when no stored graph
// has the requested id.
var ErrUnknownID = errors.New("dvicl: unknown graph id")

// ErrInvalidPattern is returned by SSMCtx when the query pattern is not a
// duplicate-free vertex set of the canonical graph. Use errors.Is; the
// returned error wraps this with the offending detail.
var ErrInvalidPattern = errors.New("dvicl: invalid SSM pattern")

// certByID resolves a public id to its shard and certificate.
func (ix *GraphIndex) certByID(id int) (string, *indexShard, error) {
	if id < 0 || len(ix.shards) == 0 {
		return "", nil, ErrUnknownID
	}
	sh := ix.shards[id%len(ix.shards)]
	local := id / len(ix.shards)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return "", nil, ErrIndexClosed
	}
	if local >= len(sh.certs) {
		return "", nil, ErrUnknownID
	}
	return sh.certs[local], sh, nil
}

// treeByID returns the (shared, read-only) AutoTree of the canonical
// graph of id's isomorphism class from its shard's tree store: a memory
// hit, a disk hit, or a single-flight rebuild (the only one of the three
// when the index has no IndexOptions.TreeStore, as its stores then cache
// nothing).
func (ix *GraphIndex) treeByID(ctx context.Context, id int) (*AutoTree, error) {
	cert, sh, err := ix.certByID(id)
	if err != nil {
		return nil, err
	}
	return sh.ts.Get(ctx, []byte(cert))
}

// symQuery wraps the shared per-query bookkeeping: phase span, tree
// resolution and, once the tree resolves, the query counter (a query for
// an unknown id is not counted). The returned ctx carries the span for
// nested work. The caller ends the span; it is already ended when err is
// non-nil.
func (ix *GraphIndex) symQuery(ctx context.Context, id int, c obs.Counter) (context.Context, *AutoTree, obs.Span, error) {
	ctx, rec, span := obs.Start(ctx, ix.opt.Obs, obs.PhaseSymmetryQuery)
	span.SetAttr("graph_id", int64(id))
	tree, err := ix.treeByID(ctx, id)
	if err != nil {
		span.End()
		return ctx, nil, obs.Span{}, err
	}
	rec.Inc(c)
	return ctx, tree, span, nil
}

// OrbitsCtx returns the orbit partition of the canonical graph of id's
// isomorphism class under its automorphism group. On a tree-store index
// the warm path performs zero DviCL builds (the tree is served from the
// decoded-tree cache or from disk).
func (ix *GraphIndex) OrbitsCtx(ctx context.Context, id int) ([][]int, error) {
	_, tree, span, err := ix.symQuery(ctx, id, obs.SymmetryQueryOrbits)
	if err != nil {
		return nil, err
	}
	defer span.End()
	return tree.Orbits(), nil
}

// AutGroupCtx returns the automorphism group of the canonical graph of
// id's isomorphism class: its order and a generating set in sparse
// (moved-points) form. The generators alias the stored tree — treat them
// as read-only.
func (ix *GraphIndex) AutGroupCtx(ctx context.Context, id int) (order *big.Int, gens []SparsePerm, err error) {
	_, tree, span, err := ix.symQuery(ctx, id, obs.SymmetryQueryAutGroup)
	if err != nil {
		return nil, nil, err
	}
	defer span.End()
	return tree.AutOrder(), append([]SparsePerm(nil), tree.SparseGenerators()...), nil
}

// QuotientCtx returns the orbit-quotient graph of the canonical graph of
// id's isomorphism class (the paper's network-quotient application).
func (ix *GraphIndex) QuotientCtx(ctx context.Context, id int) (QuotientResult, error) {
	_, tree, span, err := ix.symQuery(ctx, id, obs.SymmetryQueryQuotient)
	if err != nil {
		return QuotientResult{}, err
	}
	defer span.End()
	return tree.Quotient(), nil
}

// SSMCtx answers a symmetric-subgraph-matching query (Algorithm 6)
// against the canonical graph of id's isomorphism class: the number of
// automorphic images of pattern, plus — when limit > 0 — up to limit of
// the images themselves. Pattern vertices are canonical-graph ids, must
// be in range and duplicate-free (ErrInvalidPattern otherwise).
func (ix *GraphIndex) SSMCtx(ctx context.Context, id int, pattern []int, limit int) (count *big.Int, images [][]int, err error) {
	ctx, tree, span, err := ix.symQuery(ctx, id, obs.SymmetryQuerySSM)
	if err != nil {
		return nil, nil, err
	}
	defer span.End()
	n := tree.Graph().N()
	seen := make(map[int]bool, len(pattern))
	for _, v := range pattern {
		switch {
		case v < 0 || v >= n:
			return nil, nil, fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrInvalidPattern, v, n)
		case seen[v]:
			return nil, nil, fmt.Errorf("%w: duplicate vertex %d", ErrInvalidPattern, v)
		}
		seen[v] = true
	}
	// The SSM index lazily memoizes per-node metadata, so each request
	// gets a fresh one; the shared tree underneath is read-only.
	sx := ssm.NewIndex(tree)
	sx.SetRecorder(obs.RecorderFor(ctx, ix.opt.Obs))
	count, err = sx.CountImagesCtx(ctx, pattern)
	if err != nil {
		return nil, nil, err
	}
	if limit > 0 {
		images, err = sx.EnumerateCtx(ctx, pattern, limit)
		if err != nil {
			return nil, nil, err
		}
	}
	return count, images, nil
}
