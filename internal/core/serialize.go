package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dvicl/internal/graph"
	"dvicl/internal/perm"
	"dvicl/internal/store"
)

// AutoTree serialization: the tree is an index (the paper's term), so a
// system that pays to build it over a massive graph wants to persist it.
// The format is a simple length-prefixed binary encoding, independent of
// host byte order; the graph itself is not stored — the caller supplies
// the same graph at load time (checked via vertex/edge counts).
//
// Load failures use the typed error set of internal/store — ErrBadMagic,
// *VersionError, ErrTruncated, ErrChecksum — so callers (the treestore's
// corruption fallback in particular) can distinguish a torn file from
// version skew from structural corruption with errors.Is / errors.As.

// treeMagicPrefix identifies an AutoTree file; the byte after it is the
// format version.
const (
	treeMagicPrefix = "DVICLAT"
	treeVersion     = 1
	treeMagic       = uint64(0x4456_4943_4c41_5400 | treeVersion) // "DVICLAT" + version
)

type treeWriter struct {
	w   *bufio.Writer
	err error
}

func (tw *treeWriter) u64(x uint64) {
	if tw.err != nil {
		return
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], x)
	_, tw.err = tw.w.Write(buf[:])
}

func (tw *treeWriter) num(x int) { tw.u64(uint64(x)) }
func (tw *treeWriter) ints(xs []int) {
	tw.num(len(xs))
	for _, x := range xs {
		tw.num(x)
	}
}
func (tw *treeWriter) bytes(b []byte) {
	tw.num(len(b))
	if tw.err == nil {
		_, tw.err = tw.w.Write(b)
	}
}

// Save writes the tree to w.
func (t *Tree) Save(w io.Writer) error {
	tw := &treeWriter{w: bufio.NewWriter(w)}
	tw.u64(treeMagic)
	tw.num(t.g.N())
	tw.num(t.g.M())
	tw.ints(t.colors)
	tw.ints(t.Gamma)
	if t.Truncated {
		tw.num(1)
	} else {
		tw.num(0)
	}
	tw.num(len(t.sparseGens))
	for _, s := range t.sparseGens {
		tw.num(len(s.Moved))
		for _, m := range s.Moved {
			tw.num(m[0])
			tw.num(m[1])
		}
	}
	var save func(nd *Node)
	save = func(nd *Node) {
		tw.num(int(nd.Kind))
		tw.num(int(nd.Divide))
		tw.ints(nd.Verts)
		tw.ints(nd.gammaVal)
		tw.bytes(nd.Cert)
		tw.bytes(nd.desc)
		tw.num(len(nd.localGens))
		for _, g := range nd.localGens {
			tw.ints(g)
		}
		if nd.localGraph != nil {
			edges := nd.localGraph.Edges()
			tw.num(nd.localGraph.N())
			tw.num(len(edges))
			for _, e := range edges {
				tw.num(e[0])
				tw.num(e[1])
			}
		} else {
			tw.num(-1)
		}
		tw.num(len(nd.Children))
		for _, c := range nd.Children {
			save(c)
		}
	}
	if t.Root != nil {
		tw.num(1)
		save(t.Root)
	} else {
		tw.num(0)
	}
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

type treeReader struct {
	r   *bufio.Reader
	err error
}

func (tr *treeReader) u64() uint64 {
	if tr.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		tr.err = truncated(err)
		return 0
	}
	return binary.BigEndian.Uint64(buf[:])
}

// truncated maps an io read failure onto the typed store error set: a
// stream that ends mid-field is store.ErrTruncated (a torn file), any
// other failure passes through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("core: corrupt tree: %w", store.ErrTruncated)
	}
	return err
}

func (tr *treeReader) num() int { return int(int64(tr.u64())) }

// maxChunk bounds any single length field: it must cover the largest
// legitimate payload (a vertex list), but a corrupt length must not cause
// a gigantic allocation before the read fails.
const maxChunk = 1 << 28

func (tr *treeReader) ints() []int {
	n := tr.num()
	if tr.err != nil || n < 0 || n > maxChunk {
		tr.fail("bad slice length")
		return nil
	}
	out := make([]int, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		out = append(out, tr.num())
		if tr.err != nil {
			return nil
		}
	}
	return out
}

func (tr *treeReader) bytes() []byte {
	n := tr.num()
	if tr.err != nil || n < 0 || n > maxChunk {
		tr.fail("bad byte length")
		return nil
	}
	out := make([]byte, 0, min(n, 1<<16))
	buf := make([]byte, 4096)
	for len(out) < n && tr.err == nil {
		chunk := n - len(out)
		if chunk > len(buf) {
			chunk = len(buf)
		}
		k, err := io.ReadFull(tr.r, buf[:chunk])
		if err != nil {
			tr.err = truncated(err)
		}
		out = append(out, buf[:k]...)
	}
	return out
}

func (tr *treeReader) fail(msg string) {
	if tr.err == nil {
		tr.err = fmt.Errorf("core: corrupt tree: %s: %w", msg, store.ErrChecksum)
	}
}

// Load reads a tree saved by Save, re-attaching it to g (which must be
// the same graph the tree was built from).
func Load(r io.Reader, g *graph.Graph) (*Tree, error) {
	tr := &treeReader{r: bufio.NewReader(r)}
	var hdr [8]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return nil, truncated(err)
	}
	if string(hdr[:7]) != treeMagicPrefix {
		return nil, fmt.Errorf("core: not an AutoTree file: %w", store.ErrBadMagic)
	}
	if hdr[7] != treeVersion {
		return nil, &store.VersionError{File: "autotree", Got: uint16(hdr[7]), Want: treeVersion}
	}
	n := tr.num()
	m := tr.num()
	if tr.err == nil && (n != g.N() || m != g.M()) {
		return nil, fmt.Errorf("core: tree was built for a graph with n=%d m=%d, got n=%d m=%d: %w",
			n, m, g.N(), g.M(), store.ErrChecksum)
	}
	t := &Tree{g: g}
	t.colors = tr.ints()
	gamma := tr.ints()
	if tr.err == nil && len(gamma) != g.N() {
		return nil, fmt.Errorf("core: corrupt tree: Gamma length %d, want %d: %w", len(gamma), g.N(), store.ErrChecksum)
	}
	t.Gamma = perm.Perm(gamma)
	t.Truncated = tr.num() == 1
	nGens := tr.num()
	if tr.err == nil && (nGens < 0 || nGens > 1<<31) {
		tr.fail("bad generator count")
	}
	for i := 0; i < nGens && tr.err == nil; i++ {
		k := tr.num()
		if tr.err == nil && (k < 0 || k > 2*g.N()) {
			tr.fail("bad moved-point count")
			break
		}
		s := perm.Sparse{N: g.N()}
		for j := 0; j < k && tr.err == nil; j++ {
			a := tr.num()
			b := tr.num()
			if a < 0 || a >= g.N() || b < 0 || b >= g.N() {
				tr.fail("moved point out of range")
				break
			}
			s.Moved = append(s.Moved, [2]int{a, b})
		}
		t.sparseGens = append(t.sparseGens, s)
	}
	var load func() *Node
	load = func() *Node {
		if tr.err != nil {
			return nil
		}
		nd := &Node{
			Kind:   NodeKind(tr.num()),
			Divide: DivideKind(tr.num()),
		}
		nd.Verts = tr.ints()
		for _, v := range nd.Verts {
			if v < 0 || v >= g.N() {
				tr.fail("vertex out of range")
				return nil
			}
		}
		nd.gammaVal = tr.ints()
		nd.Cert = tr.bytes()
		nd.desc = tr.bytes()
		nLocal := tr.num()
		if tr.err == nil && (nLocal < 0 || nLocal > 1<<20) {
			tr.fail("bad local generator count")
			return nil
		}
		for i := 0; i < nLocal && tr.err == nil; i++ {
			lg := tr.ints()
			for _, x := range lg {
				if x < 0 || x >= len(nd.Verts) {
					tr.fail("local generator out of range")
					return nil
				}
			}
			nd.localGens = append(nd.localGens, perm.Perm(lg))
		}
		ln := tr.num()
		if tr.err == nil && ln > g.N() {
			tr.fail("bad local graph size")
			return nil
		}
		if ln >= 0 && tr.err == nil {
			le := tr.num()
			if tr.err == nil && (le < 0 || le > ln*ln) {
				tr.fail("bad local edge count")
				return nil
			}
			b := graph.NewBuilder(ln)
			for i := 0; i < le && tr.err == nil; i++ {
				u := tr.num()
				v := tr.num()
				if u < 0 || u >= ln || v < 0 || v >= ln {
					tr.fail("local edge out of range")
					return nil
				}
				b.AddEdge(u, v)
			}
			if tr.err == nil {
				nd.localGraph = b.Build()
			}
		}
		nc := tr.num()
		if tr.err == nil && (nc < 0 || nc > g.N()+1) {
			tr.fail("bad child count")
			return nil
		}
		for i := 0; i < nc && tr.err == nil; i++ {
			nd.Children = append(nd.Children, load())
		}
		return nd
	}
	if tr.num() == 1 {
		t.Root = load()
	}
	if tr.err != nil {
		return nil, tr.err
	}
	return t, nil
}
