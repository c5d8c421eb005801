package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"dvicl/internal/canon"
	"dvicl/internal/coloring"
	"dvicl/internal/engine"
	"dvicl/internal/obs"
)

// descriptor accumulates the removal record of a division in a canonical
// byte form. Certificates of internal nodes cover the descriptor so that
// certificate equality remains a complete isomorphism invariant: the
// children describe the reduced components, and the descriptor describes —
// purely in color terms, which is all that is needed because every removed
// structure is color-complete — the edges the division deleted.
//
// The bytes accumulate in the workspace's Bytes buffer; the divide that
// built the descriptor copies buf to the slab and restores ws.Bytes to
// buf[:0] (keeping any growth).
type descriptor struct {
	buf []byte
}

func newDescriptor(ws *engine.Workspace, kind DivideKind) descriptor {
	d := descriptor{buf: ws.Bytes[:0]}
	d.word(int(kind))
	return d
}

func (d *descriptor) word(x int) {
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(x))
}

// singleton records a DivideI axis vertex: its color and the colors of
// the cells it was fully adjacent to.
func (d *descriptor) singleton(color int, nbColors []int) {
	d.word(-1)
	d.word(color)
	d.word(len(nbColors))
	for _, c := range nbColors {
		d.word(c)
	}
}

// pair records a DivideS clique (a == b) or biclique (a < b) removal.
func (d *descriptor) pair(a, b int) {
	d.word(-2)
	d.word(a)
	d.word(b)
}

// cl is the recursive procedure of Algorithm 1: it constructs the AutoTree
// rooted at (g, πg) using wk's workspace and slab (owned by this
// goroutine). It stops with the controller's error as soon as the build is
// canceled or over budget — every tree node is a cancellation checkpoint.
//
// Memory: cl brackets each node in an arena frame — everything the divides
// allocate (child CSRs, component scratch) lives until the whole subtree
// below this node is built, then the frame is released at once. The
// subgraph sg itself belongs to the caller's frame.
//
// ts is the enclosing trace span (nil when untraced). Every divide
// attempt opens a divide_i/divide_s span under it, timing only the
// division; the successful one becomes the parent of the children's
// spans and of the node's combine_st, so the span tree mirrors the
// AutoTree's division structure. Singleton leaves record no span; the
// trace's span cap bounds pathological trees.
func (b *builder) cl(sg *subgraph, wk *worker, ts *obs.TraceSpan) (*Node, error) {
	if err := b.ctl.Poll(); err != nil {
		return nil, err
	}
	nd := wk.slab.node()
	nd.Verts = sg.verts
	if len(sg.verts) == 0 {
		nd.Kind = KindLeaf
		e := [1]byte{'e'}
		nd.Cert = wk.hash(e[:])
		return nd, nil
	}
	if len(sg.verts) == 1 {
		b.makeSingleton(nd, wk)
		return nd, nil
	}
	mark := wk.ws.Arena.Mark()
	defer wk.ws.Arena.Release(mark)
	b.opt.Obs.Inc(obs.DivideICalls)
	span := obs.StartUnder(b.opt.Obs, ts, obs.PhaseDivideI)
	div, ok := b.divideI(sg, wk)
	span.End()
	if !ok && !b.opt.DisableDivideS {
		b.opt.Obs.Inc(obs.DivideSCalls)
		span = obs.StartUnder(b.opt.Obs, ts, obs.PhaseDivideS)
		div, ok = b.divideS(sg, wk)
		span.End()
	}
	if !ok {
		wk.ws.Arena.Release(mark) // drop the failed divides' scratch before the leaf search
		if err := b.combineCL(nd, sg, wk, ts); err != nil {
			return nil, err
		}
		return nd, nil
	}
	nd.Kind = KindInternal
	nd.Divide = div.kind
	nd.desc = div.desc
	span.SetAttr("size", int64(len(sg.verts)))
	span.SetAttr("children", int64(len(div.children)))
	children, err := b.buildChildren(div.children, wk, span.TraceSpan())
	if err != nil {
		return nil, err
	}
	nd.Children = children
	b.combineST(nd, wk, span.TraceSpan())
	return nd, nil
}

// buildChild materializes one divided child and builds its subtree,
// bracketed in its own arena frame on wk: the child's CSR (and every
// divide below it) is released as soon as its subtree is done, instead
// of accumulating in the parent's frame for the sibling builds.
func (b *builder) buildChild(ref childRef, wk *worker, ts *obs.TraceSpan) (*Node, error) {
	mark := wk.ws.Arena.Mark()
	defer wk.ws.Arena.Release(mark)
	return b.cl(ref.materialize(wk), wk, ts)
}

// buildChildren recurses into the divided children. Sequentially when
// the build has no worker pool (or the fanout is trivial); otherwise
// every child becomes a task on this worker's deque — the worker then
// helps the pool until its own join completes, so deep chains of binary
// divides (push one, descend into the other) keep thieves fed without
// this goroutine ever blocking idle.
//
// Subtrees are fully independent: they share only read-only state (the
// global graph, colors, and the dividing frame's arena-backed CSRs,
// which stay alive until the join completes) and each task runs on its
// executing worker's own workspace and slab. Tasks fill their
// divide-order slot in nodes, so the child order combineST sees is
// identical to the sequential build's.
//
// On error the join still waits for every task: a failure latches in the
// scheduler, tasks not yet started skip their builds and report the
// latched error, and in-flight siblings unwind promptly at their next
// ctl poll — no goroutine is leaked and the first error is returned.
// (The old token-bucket version checked the error latch only after
// spawning each child, so the inline-fallback path kept building
// children after a sibling had already failed.)
func (b *builder) buildChildren(refs []childRef, wk *worker, ts *obs.TraceSpan) ([]*Node, error) {
	nodes := make([]*Node, len(refs))
	if b.sched == nil || len(refs) < 2 {
		for i, ref := range refs {
			nd, err := b.buildChild(ref, wk, ts)
			if err != nil {
				return nil, err
			}
			nodes[i] = nd
		}
		return nodes, nil
	}
	jn := &join{remaining: len(refs)}
	tasks := make([]func(*worker), len(refs))
	for i, ref := range refs {
		i, ref := i, ref
		tasks[i] = func(cwk *worker) {
			err := b.sched.abortErr()
			if err == nil {
				var nd *Node
				if nd, err = b.buildChild(ref, cwk, ts); err == nil {
					nodes[i] = nd
				}
			}
			b.sched.finish(jn, err)
		}
	}
	b.sched.push(wk, tasks)
	if err := b.sched.joinWait(jn, wk); err != nil {
		return nil, err
	}
	return nodes, nil
}

// hash returns the SHA-256 of body as a slab-backed 32-byte certificate.
func (wk *worker) hash(body []byte) []byte {
	sum := sha256.Sum256(body)
	return wk.slab.bytesCopy(sum[:])
}

// makeSingleton fills in a one-vertex leaf: its canonical label is its
// color, C(g, πg) = (π(v), π(v)) per Section 5.
func (b *builder) makeSingleton(nd *Node, wk *worker) {
	v := nd.Verts[0]
	nd.Kind = KindSingleton
	g := wk.slab.intSlice(1)
	g[0] = b.t.colors[v]
	nd.gammaVal = g
	var buf [9]byte
	buf[0] = 's'
	binary.BigEndian.PutUint64(buf[1:], uint64(b.t.colors[v]))
	nd.Cert = wk.hash(buf[:])
}

// combineCL implements Algorithm 4 for a non-singleton leaf: an
// individualization–refinement engine (the paper's nauty/bliss/traces)
// canonically labels (g, πg); its total order γ* then ranks same-colored
// vertices, yielding vᵞᵍ = π(v) + rank.
func (b *builder) combineCL(nd *Node, sg *subgraph, wk *worker, ts *obs.TraceSpan) error {
	nd.Kind = KindLeaf
	b.opt.Obs.Inc(obs.LeafSearches)
	span := obs.StartUnder(b.opt.Obs, ts, obs.PhaseCombineCL)
	defer span.End()
	span.SetAttr("size", int64(len(sg.verts)))
	ws := wk.ws
	cells := b.cellsOf(sg, ws)
	pi, err := coloring.FromCells(len(sg.verts), cells)
	if err != nil {
		return engine.Internalf("core.combineCL", "projected cells are not a partition: %v", err)
	}
	copt := canon.Options{Policy: b.opt.LeafPolicy, Obs: b.opt.Obs, Span: span.TraceSpan()}
	res, err := canon.CanonicalCtl(b.ctl, ws, sg.local, pi, copt)
	if err != nil {
		return err
	}
	nd.leafNodes = res.Nodes
	nd.leafLeaves = res.Leaves
	nd.localGens = res.Generators
	// sg.local is an arena-backed view owned by an enclosing frame that is
	// released once the tree is built; the leaf keeps its local graph for
	// later queries (SSM, verification), so promote it to a heap copy.
	nd.localGraph = sg.local.Clone()
	// Rank same-colored vertices by γ*: sort each cell by packed
	// (order, local) keys — order values are distinct, so this matches
	// sorting members by order — and rank in that sequence.
	nd.gammaVal = wk.slab.intSlice(len(sg.verts))
	keys := ws.Keys[:0]
	for _, cell := range cells {
		keys = keys[:0]
		for _, l := range cell {
			keys = append(keys, uint64(res.Canon[l])<<32|uint64(l))
		}
		slices.Sort(keys)
		color := b.colorOf(sg, cell[0])
		for rank, key := range keys {
			nd.gammaVal[int(key&0xffffffff)] = color + rank
		}
	}
	ws.Keys = keys[:0]
	nd.Cert = leafCert(nd, sg, cells, b, wk)
	return nil
}

// leafCert encodes the canonical form of a leaf exactly: the (color,
// count) profile followed by the edge list relabeled by γg — the colored
// graph C(g, πg) — then hashed.
func leafCert(nd *Node, sg *subgraph, cells [][]int, b *builder, wk *worker) []byte {
	ws := wk.ws
	body := ws.Bytes[:0]
	body = append(body, 'l')
	for _, cell := range cells {
		body = binary.BigEndian.AppendUint64(body, uint64(b.colorOf(sg, cell[0])))
		body = binary.BigEndian.AppendUint64(body, uint64(len(cell)))
	}
	edges := ws.Keys[:0]
	g := sg.local
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors32(u) {
			if int(w) > u {
				a, c := nd.gammaVal[u], nd.gammaVal[int(w)]
				if a > c {
					a, c = c, a
				}
				edges = append(edges, uint64(a)<<32|uint64(c))
			}
		}
	}
	slices.Sort(edges)
	for _, e := range edges {
		body = binary.BigEndian.AppendUint64(body, e>>32)
		body = binary.BigEndian.AppendUint64(body, e&0xffffffff)
	}
	cert := wk.hash(body)
	ws.Bytes = body[:0]
	ws.Keys = edges[:0]
	return cert
}

// combineST implements Algorithm 5: children are sorted by certificate;
// the child order and the within-child canonical orders together rank the
// same-colored vertices of g, yielding γg. It also recomputes the node's
// certificate from the descriptor and the sorted child certificates.
// It is re-runnable: twin expansion (Section 6.1) calls it again after
// inserting children. ts is the trace parent of its combine_st span.
func (b *builder) combineST(nd *Node, wk *worker, ts *obs.TraceSpan) {
	defer obs.StartUnder(b.opt.Obs, ts, obs.PhaseCombineST).End()
	slices.SortStableFunc(nd.Children, nodeCertCmp)
	// Recompute Verts as the union of children (expansion changes it).
	total := 0
	for _, c := range nd.Children {
		total += len(c.Verts)
	}
	verts := wk.slab.intSlice(total)
	p := 0
	for _, c := range nd.Children {
		p += copy(verts[p:], c.Verts)
	}
	slices.Sort(verts)
	nd.Verts = verts

	// Rank same-colored vertices: child order first, within-child γ order
	// second (lines 1–5 of Algorithm 5). Per-color ranks live in
	// ColorCount (zeroed invariant, restored below); per-vertex labels in
	// Gamma (write-before-read). Each child's vertices are walked in γ
	// order by sorting packed (gammaVal, local) keys — gammaVal values
	// are distinct within a node, so this matches vertsByGamma.
	ws := wk.ws
	keys := ws.Keys[:0]
	for _, c := range nd.Children {
		keys = keys[:0]
		for i, gv := range c.gammaVal {
			keys = append(keys, uint64(gv)<<32|uint64(i))
		}
		slices.Sort(keys)
		for _, key := range keys {
			v := c.Verts[int(key&0xffffffff)]
			color := b.t.colors[v]
			ws.Gamma[v] = color + int(ws.ColorCount[color])
			ws.ColorCount[color]++
		}
	}
	gamma := wk.slab.intSlice(len(nd.Verts))
	for i, v := range nd.Verts {
		gamma[i] = ws.Gamma[v]
		ws.ColorCount[b.t.colors[v]] = 0
	}
	nd.gammaVal = gamma
	ws.Keys = keys[:0]

	// Certificate: divide kind + removal descriptor + ordered child certs.
	body := ws.Bytes[:0]
	body = append(body, 'i')
	body = append(body, nd.desc...)
	for _, c := range nd.Children {
		body = append(body, c.Cert...)
	}
	nd.Cert = wk.hash(body)
	ws.Bytes = body[:0]
}

// nodeCertCmp orders tree nodes by their certificate bytes — the
// CombineST sibling order.
func nodeCertCmp(x, y *Node) int { return bytes.Compare(x.Cert, y.Cert) }

// vertsByGamma returns a node's vertices ordered by their canonical label
// within the node. Labels are distinct within a node, so sorting the
// packed keys label<<32 | index orders the indices by label.
func vertsByGamma(nd *Node) []int {
	keys := make([]uint64, len(nd.Verts))
	for i, gv := range nd.gammaVal {
		keys[i] = uint64(gv)<<32 | uint64(i)
	}
	slices.Sort(keys)
	out := make([]int, len(keys))
	for i, key := range keys {
		out[i] = nd.Verts[key&0xffffffff]
	}
	return out
}
