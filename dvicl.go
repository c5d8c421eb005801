// Package dvicl is a Go implementation of "Graph Iso/Auto-morphism: A
// Divide-&-Conquer Approach" (Lu, Yu, Zhang, Cheng — SIGMOD 2021): the
// DviCL canonical-labeling algorithm, the AutoTree index it builds, the
// SSM-AT symmetric-subgraph-matching algorithm, and every substrate the
// paper's evaluation uses (an individualization–refinement baseline in the
// style of nauty/bliss/traces, permutation groups, influence maximization,
// clique and triangle workloads, and the benchmark-graph generators).
//
// Quick start:
//
//	g := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
//	tree := dvicl.BuildAutoTree(g, nil, dvicl.Options{})
//	fmt.Println(tree.AutOrder())       // |Aut(C4)| = 8
//	fmt.Println(tree.Stats())          // AutoTree shape
//	same := dvicl.Isomorphic(g, h)     // canonical-certificate equality
//
// For the paper's database-indexing application, GraphIndex maps
// certificates to graph ids: NewGraphIndex is in-memory, OpenGraphIndex
// is durable (one write-ahead log per shard, crash-safe), and cmd/indexd
// serves either over HTTP. See docs/ARCHITECTURE.md for the package map
// and docs/OPERATIONS.md for operating the daemon.
//
// The package is a facade: the implementation lives in internal/ packages
// (core, canon, coloring, graph, group, ssm, im, clique, gen, gf, perm,
// obs, store), re-exported here through type aliases so the whole system
// is usable from a single import.
package dvicl

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/big"

	"dvicl/internal/canon"
	"dvicl/internal/clique"
	"dvicl/internal/coloring"
	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/group"
	"dvicl/internal/im"
	"dvicl/internal/obs"
	"dvicl/internal/perm"
	"dvicl/internal/ssm"
	"dvicl/internal/treestore"
)

// Graph is an immutable undirected simple graph (CSR representation).
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Coloring is an ordered partition of the vertex set (a colored graph's π).
type Coloring = coloring.Coloring

// Perm is a permutation of {0,…,n−1}.
type Perm = perm.Perm

// AutoTree is the index DviCL builds: canonical labeling, automorphism
// group, orbit structure and symmetric-subtree certificates.
type AutoTree = core.Tree

// AutoTreeNode is one node of an AutoTree.
type AutoTreeNode = core.Node

// AutoTreeStats summarizes an AutoTree (Tables 3 and 4 of the paper).
type AutoTreeStats = core.Stats

// Options configures DviCL (the leaf engine, the resource Budget and the
// Section 6.1 twin optimization).
type Options = core.Options

// Workspace is a reusable bundle of build-sized buffers. Long-lived
// workers (e.g. pipeline canonicalizers) can check one out of the shared
// pool once and thread it through many builds via Options.Workspace,
// paying the pool round-trip per worker instead of per build.
type Workspace = engine.Workspace

// Budget bounds a build end to end: past its whole-build deadline or
// search-node cap, the Ctx entry points return ErrBudgetExceeded and no
// labeling, so every certificate returned is exact. Set it in
// Options.Budget.
type Budget = engine.Budget

// InternalError reports a broken internal invariant as a value instead
// of a panic; the Ctx entry points return it so one pathological input
// cannot kill a serving process.
type InternalError = engine.InternalError

// ErrCanceled is returned by the Ctx entry points when the caller's
// context is canceled mid-build or mid-query.
var ErrCanceled = engine.ErrCanceled

// ErrBudgetExceeded is returned by the Ctx entry points when the build
// exhausts its Budget (whole-build deadline or search-node cap).
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// BaselineOptions configures the individualization–refinement baseline.
type BaselineOptions = canon.Options

// BaselineResult is the baseline's output.
type BaselineResult = canon.Result

// Policy selects the baseline's target cell selector.
type Policy = canon.Policy

// The three published target-cell policies, named for the tools whose
// behavior they emulate.
const (
	PolicyBliss  = canon.PolicyBliss
	PolicyNauty  = canon.PolicyNauty
	PolicyTraces = canon.PolicyTraces
)

// SSMIndex answers symmetric-subgraph-matching queries (Algorithm 6).
type SSMIndex = ssm.Index

// SparsePerm is a permutation in sparse (moved-points) form: the pairs
// (i, π(i)) with π(i) ≠ i. The AutoTree generator set and the /autgroup
// endpoint use it — automorphisms of large graphs typically move few
// vertices.
type SparsePerm = perm.Sparse

// QuotientResult is the orbit-quotient graph of an AutoTree (orbit
// representatives, member counts, and the collapsed edge multiset).
type QuotientResult = core.QuotientResult

// TreeStore is a content-addressed persistent store of AutoTrees keyed
// by canonical certificate, with a byte-budgeted in-memory cache of
// decoded trees and rebuild-on-miss (see OpenTreeStore and
// IndexOptions.TreeStore).
type TreeStore = treestore.Store

// TreeStoreStats is a point-in-time summary of a TreeStore's cache.
type TreeStoreStats = treestore.Stats

// SubgraphMatcher is a VF2-style induced-subgraph matcher (the paper's
// SM subroutine).
type SubgraphMatcher = ssm.Matcher

// ICModel is a PMC-style influence-maximization model under independent
// cascade.
type ICModel = im.Model

// PermGroup is a permutation group with a Schreier–Sims stabilizer chain.
type PermGroup = group.Group

// Dataset couples a named evaluation graph with the paper's reported
// statistics.
type Dataset = gen.Dataset

// MetricsRecorder collects the pipeline's observability counters and phase
// timers (see internal/obs). Attach one via Options.Obs /
// BaselineOptions.Obs / SSMIndex.SetRecorder; a nil recorder is a valid
// no-op, so instrumented paths cost one predictable branch when disabled.
type MetricsRecorder = obs.Recorder

// MetricsSnapshot is a JSON-serializable point-in-time copy of a
// MetricsRecorder: every counter by name plus per-phase timing stats.
type MetricsSnapshot = obs.Snapshot

// DebugServer serves /debug/pprof/, /debug/vars and /debug/metrics for a
// recorder (see ServeDebug).
type DebugServer = obs.DebugServer

// Trace is a request-scoped observability unit: a hierarchical span tree
// plus the request's own counter deltas, recorded alongside (and
// forwarded to) a global MetricsRecorder. Create one with NewTrace, put
// it on a context with WithTrace, and every ctx-aware entry point
// (BuildAutoTreeCtx, CanonicalCertCtx, GraphIndex.AddCtx/LookupCtx, the
// SSM queries, the bulk pipeline) records into it. A nil *Trace is a
// valid disabled trace; all methods no-op.
type Trace = obs.Trace

// TraceSpan is one node of a Trace's span tree; nil is a valid no-op span.
type TraceSpan = obs.TraceSpan

// TraceSnapshot is the JSON form of a Trace: span tree, per-request
// counter deltas, and phase timings.
type TraceSnapshot = obs.TraceSnapshot

// SpanSnapshot is the JSON form of one span in a TraceSnapshot's tree.
type SpanSnapshot = obs.SpanSnapshot

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an edge list. Self-loops
// and duplicate edges are dropped.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line,
// '#'/'%' comments), compacting vertex ids.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as a sorted edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ToGraph6 encodes g in nauty's graph6 interchange format.
func ToGraph6(g *Graph) (string, error) { return graph.ToGraph6(g) }

// FromGraph6 decodes a graph6 string.
func FromGraph6(s string) (*Graph, error) { return graph.FromGraph6(s) }

// UnitColoring returns the coloring with a single cell (all vertices the
// same color).
func UnitColoring(n int) *Coloring { return coloring.Unit(n) }

// ColoringFromCells builds a coloring from an ordered cell partition,
// e.g. vertex labels/attributes (Section 2 of the paper).
func ColoringFromCells(n int, cells [][]int) (*Coloring, error) {
	return coloring.FromCells(n, cells)
}

// BuildAutoTree runs DviCL (Algorithm 1) on the colored graph (g, pi)
// and returns its AutoTree. pi may be nil for the unit coloring.
func BuildAutoTree(g *Graph, pi *Coloring, opt Options) *AutoTree {
	return core.Build(g, pi, opt)
}

// BuildAutoTreeCtx is BuildAutoTree under a context and the Options
// budget: the build polls ctx from the tree recursion down to the
// refinement and leaf-search hot loops, returning ErrCanceled /
// ErrBudgetExceeded within milliseconds of the bound firing, or an
// *InternalError if a structural invariant breaks.
func BuildAutoTreeCtx(ctx context.Context, g *Graph, pi *Coloring, opt Options) (*AutoTree, error) {
	return core.BuildCtx(ctx, g, pi, opt)
}

// CanonicalCert returns DviCL's canonical certificate of (g, pi): two
// colored graphs are isomorphic iff their certificates are equal
// (Theorem 6.9).
func CanonicalCert(g *Graph, pi *Coloring, opt Options) []byte {
	return core.Build(g, pi, opt).CanonicalCert()
}

// CanonicalCertCtx is CanonicalCert under a context and the Options
// budget (see BuildAutoTreeCtx).
func CanonicalCertCtx(ctx context.Context, g *Graph, pi *Coloring, opt Options) ([]byte, error) {
	t, err := core.BuildCtx(ctx, g, pi, opt)
	if err != nil {
		return nil, err
	}
	return t.CanonicalCert(), nil
}

// Isomorphic reports whether g1 and g2 are isomorphic (unit colorings).
// A cheap invariant fingerprint (degree sequence, 2-hop profile, triangle
// census) screens out most non-isomorphic pairs; ties are settled by the
// DviCL canonical certificates.
func Isomorphic(g1, g2 *Graph) bool {
	return IsomorphicOpt(g1, g2, Options{})
}

// IsomorphicOpt is Isomorphic with explicit DviCL options — e.g. an
// observability recorder (Options.Obs) or a worker pool (Options.Workers).
func IsomorphicOpt(g1, g2 *Graph, opt Options) bool {
	if g1.N() != g2.N() || g1.M() != g2.M() {
		return false
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		return false
	}
	return bytes.Equal(CanonicalCert(g1, nil, opt), CanonicalCert(g2, nil, opt))
}

// AutomorphismGroup returns generators of Aut(G) and its order, via the
// AutoTree.
func AutomorphismGroup(g *Graph) (gens []Perm, order *big.Int) {
	t := core.Build(g, nil, Options{})
	return t.Generators(), t.AutOrder()
}

// Orbits returns the orbit partition of the vertices of g under Aut(G) —
// the orbit coloring of the paper.
func Orbits(g *Graph) [][]int {
	return core.Build(g, nil, Options{}).Orbits()
}

// CanonicalGraph returns the canonical form of g: isomorphic graphs map
// to the identical labeled graph.
func CanonicalGraph(g *Graph) *Graph {
	return core.Build(g, nil, Options{}).CanonicalGraph()
}

// FindIsomorphism returns a vertex mapping γ with g1^γ = g2, or false if
// the graphs are not isomorphic. The mapping is recovered from the two
// canonical labelings: γ = γ1 ∘ γ2⁻¹.
func FindIsomorphism(g1, g2 *Graph) (Perm, bool) {
	if g1.N() != g2.N() || g1.M() != g2.M() {
		return nil, false
	}
	t1 := core.Build(g1, nil, Options{})
	t2 := core.Build(g2, nil, Options{})
	if !bytes.Equal(t1.CanonicalCert(), t2.CanonicalCert()) {
		return nil, false
	}
	gamma := t1.Gamma.Compose(t2.Gamma.Inverse())
	if !g1.Permute(gamma).Equal(g2) {
		// Certificates matched but the composed mapping failed — only
		// possible under a hash collision in internal certificates.
		return nil, false
	}
	return gamma, true
}

// KSymmetrize extends g so every vertex has at least k−1 automorphic
// counterparts (the paper's social-network anonymization application).
func KSymmetrize(t *AutoTree, k int) (*Graph, error) {
	return core.KSymmetrize(t, k)
}

// SaveAutoTree persists a built index; LoadAutoTree restores it against
// the same graph — rebuilding the tree over a massive graph is the
// expensive step, so a system keeps the index on disk like any other.
// It writes one version-2 record: a header with the SHA-256 of the
// graph, a varint body and a CRC32.
func SaveAutoTree(t *AutoTree, w io.Writer) error {
	_, err := w.Write(t.Save())
	return err
}

// LoadAutoTree reads an index saved by SaveAutoTree. g must be the graph
// the index was built from; a record made for another graph is rejected.
// Files written by builds before format version 2 are rejected with a
// version or bad-magic error, never misread.
func LoadAutoTree(r io.Reader, g *Graph) (*AutoTree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dvicl: read AutoTree: %w", err)
	}
	return core.Load(data, g)
}

// OpenTreeStore opens (creating the directory if needed) a standalone
// content-addressed AutoTree store rooted at dir; dir == "" keeps the
// store memory-only. Get serves from the in-memory cache, then disk,
// then rebuilds from the certificate itself — corrupt or missing entries
// degrade to a recompute, never an error. A GraphIndex opened with
// IndexOptions.TreeStore manages its own stores; this entry point is for
// storeless pipelines (e.g. cmd/ssmquery warm caches).
func OpenTreeStore(dir string, opt TreeStoreOptions) (*TreeStore, error) {
	return treestore.Open(dir, opt)
}

// Baseline runs the individualization–refinement canonical labeler (the
// stand-in for nauty/bliss/traces) directly on (g, pi).
func Baseline(g *Graph, pi *Coloring, opt BaselineOptions) BaselineResult {
	return canon.Canonical(g, pi, opt)
}

// NewSSMIndex builds a symmetric-subgraph-matching index over an AutoTree.
func NewSSMIndex(t *AutoTree) *SSMIndex { return ssm.NewIndex(t) }

// NewMetricsRecorder returns an empty enabled recorder.
func NewMetricsRecorder() *MetricsRecorder { return obs.New() }

// NewTrace starts a request trace whose observations are kept as
// per-request deltas and forwarded to base (pass the recorder your
// Options.Obs uses, or nil for a standalone trace).
func NewTrace(id string, base *MetricsRecorder) *Trace { return obs.NewTrace(id, base) }

// WithTrace returns ctx carrying tr; ctx-aware dvicl entry points record
// their spans and counters into it.
func WithTrace(ctx context.Context, tr *Trace) context.Context { return obs.WithTrace(ctx, tr) }

// TraceFrom returns the Trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace { return obs.TraceFrom(ctx) }

// DetachTrace shadows any trace in ctx (keeping its cancellation): use it
// when fanning one traced request out into many parallel builds.
func DetachTrace(ctx context.Context) context.Context { return obs.DetachTrace(ctx) }

// ServeDebug exposes a recorder's live snapshot plus net/http/pprof and
// expvar on addr (e.g. "localhost:6060"; port ":0" picks a free one) so
// long canonical-labeling runs can be profiled while they execute. Close
// the returned server when done.
func ServeDebug(addr string, r *MetricsRecorder) (*DebugServer, error) {
	return obs.ServeDebug(addr, r)
}

// NewSubgraphMatcher returns an induced-subgraph matcher over a data
// graph; colors may be nil.
func NewSubgraphMatcher(data *Graph, colors []int) *SubgraphMatcher {
	return ssm.NewMatcher(data, colors)
}

// NewICModel builds a PMC-style IC-model estimator with r percolation
// sketches at edge probability p.
func NewICModel(g *Graph, p float64, r int, seed int64) *ICModel {
	return im.NewIC(g, p, r, seed)
}

// MaxClique returns one maximum clique of g.
func MaxClique(g *Graph) []int { return clique.MaxClique(g) }

// MaxCliques returns the maximum-clique size and all maximum cliques
// (limit 0 = all).
func MaxCliques(g *Graph, limit int) (int, [][]int) { return clique.MaxCliques(g, limit) }

// Triangles calls fn for every triangle of g.
func Triangles(g *Graph, fn func(a, b, c int)) { clique.Triangles(g, fn) }

// NewPermGroup builds a permutation group from generators.
func NewPermGroup(n int, gens []Perm) *PermGroup { return group.New(n, gens) }

// RealDatasets returns the 22 synthetic stand-ins for the paper's
// real-world graphs (Table 1).
func RealDatasets() []Dataset { return gen.RealDatasets() }

// BenchmarkDatasets returns the nine benchmark families of Table 2.
func BenchmarkDatasets() []Dataset { return gen.BenchmarkDatasets() }

// FindDataset looks up a dataset by name across both catalogs.
func FindDataset(name string) (Dataset, error) { return gen.FindDataset(name) }
