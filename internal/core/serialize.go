package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dvicl/internal/graph"
	"dvicl/internal/perm"
	"dvicl/internal/store"
)

// AutoTree records: the tree is an index (the paper's term), so a system
// that pays to build it wants to persist it. Save and Load are the only
// code that knows the record's layout:
//
//	magic "DVTS" (4) | version u16 (2) | SHA-256 of the graph (32) |
//	body | CRC32-IEEE u32 of everything before it (4)
//
// Fixed-width fields are little-endian; the body is unsigned varints.
// It holds the global colors π(v), a 0, then the nodes in preorder. The
// 0 fills the slot where older builds flagged a tree whose leaf searches
// were cut short; Load rejects a record with 1 there, so the tree store
// rebuilds that tree exactly instead of serving it. A node is its kind,
// its division, its vertex count and the gaps between its sorted
// vertices, its label count and labels γg, and its 32-byte certificate.
// A non-singleton leaf adds its local generators (a count, then each as
// the images of its vertex positions) and its local graph (vertex count,
// then per vertex the count and gaps of its higher neighbors); an
// internal node adds its child count and children.
//
// The graph is not stored: the caller supplies it to Load, which checks
// its hash. Neither is anything a loaded tree can work out for itself:
// Gamma is the root's labels, collectGens rebuilds the generators, and a
// division's removal descriptor is read only while the build combines.
//
// Load failures use the typed error set of internal/store — ErrBadMagic,
// *VersionError, ErrTruncated, ErrChecksum — so callers (the treestore's
// corruption fallback in particular) can tell them apart with errors.Is
// and errors.As.
const (
	recordMagic   = "DVTS"
	recordVersion = 2
	recordHdrLen  = len(recordMagic) + 2 + sha256.Size
	// certLen is the size of every node certificate: a SHA-256 digest.
	certLen = sha256.Size
)

// Save encodes the tree as one record.
func (t *Tree) Save() []byte {
	h := t.g.Hash()
	out := binary.LittleEndian.AppendUint16([]byte(recordMagic), recordVersion)
	out = append(out, h[:]...)
	for _, c := range t.colors {
		out = binary.AppendUvarint(out, uint64(c))
	}
	out = binary.AppendUvarint(out, 0)
	out = appendNode(out, t.Root)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func appendNode(out []byte, nd *Node) []byte {
	out = append(out, byte(nd.Kind), byte(nd.Divide))
	out = binary.AppendUvarint(out, uint64(len(nd.Verts)))
	prev := -1
	for _, v := range nd.Verts {
		out = binary.AppendUvarint(out, uint64(v-prev-1))
		prev = v
	}
	out = binary.AppendUvarint(out, uint64(len(nd.gammaVal)))
	for _, x := range nd.gammaVal {
		out = binary.AppendUvarint(out, uint64(x))
	}
	out = append(out, nd.Cert...)
	switch nd.Kind {
	case KindLeaf:
		out = binary.AppendUvarint(out, uint64(len(nd.localGens)))
		for _, lg := range nd.localGens {
			for _, x := range lg {
				out = binary.AppendUvarint(out, uint64(x))
			}
		}
		ln := 0
		if nd.localGraph != nil {
			ln = nd.localGraph.N()
		}
		out = binary.AppendUvarint(out, uint64(ln))
		for u := 0; u < ln; u++ {
			nb := nd.localGraph.Neighbors32(u)
			i := 0
			for i < len(nb) && int(nb[i]) < u {
				i++
			}
			out = binary.AppendUvarint(out, uint64(len(nb)-i))
			prev := u
			for _, w := range nb[i:] {
				out = binary.AppendUvarint(out, uint64(int(w)-prev-1))
				prev = int(w)
			}
		}
	case KindInternal:
		out = binary.AppendUvarint(out, uint64(len(nd.Children)))
		for _, c := range nd.Children {
			out = appendNode(out, c)
		}
	}
	return out
}

// Load decodes a record made by Save and attaches it to g, which must be
// the graph the tree was built for.
func Load(data []byte, g *graph.Graph) (*Tree, error) {
	if len(data) < recordHdrLen+4 {
		return nil, fmt.Errorf("core: tree record of %d bytes: %w", len(data), store.ErrTruncated)
	}
	if string(data[:4]) != recordMagic {
		return nil, fmt.Errorf("core: not an AutoTree record: %w", store.ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != recordVersion {
		return nil, &store.VersionError{File: "autotree", Got: v, Want: recordVersion}
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("core: tree record: %w", store.ErrChecksum)
	}
	if h := g.Hash(); !bytes.Equal(h[:], data[6:recordHdrLen]) {
		return nil, fmt.Errorf("core: tree record was built for another graph: %w", store.ErrChecksum)
	}
	n := g.N()
	d := &decoder{data: body, p: recordHdrLen, n: n}
	t := &Tree{g: g, colors: d.slab.intSlice(n)}
	for v := range t.colors {
		t.colors[v] = d.varint(n, "color")
	}
	d.varint(1, "truncated flag")
	t.Root = d.node()
	if d.err == nil && len(t.Root.Verts) != n {
		d.fail("root does not cover the graph")
	}
	if d.err == nil && d.p != len(body) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := t.derive(); err != nil {
		return nil, fmt.Errorf("core: corrupt tree: %v: %w", err, store.ErrChecksum)
	}
	return t, nil
}

// decoder reads a record body. Every value is checked against a bound
// and every length against the bytes left before anything is allocated;
// the first failure sticks. Decoded slices come from the tree's slab.
type decoder struct {
	data []byte
	p    int
	n    int // vertices of the graph
	err  error
	slab slab
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: corrupt tree: bad %s: %w", what, store.ErrChecksum)
	}
}

// varint decodes one varint, which must be below bound.
func (d *decoder) varint(bound int, what string) int {
	if d.err != nil {
		return 0
	}
	x, k := binary.Uvarint(d.data[d.p:])
	if k <= 0 || x >= uint64(bound) {
		d.fail(what)
		return 0
	}
	d.p += k
	return int(x)
}

// length decodes a count of varints that follow: at most limit, and no
// more than the bytes left, since each takes at least one.
func (d *decoder) length(limit int, what string) int {
	return d.varint(min(limit, len(d.data)-d.p)+1, what)
}

func (d *decoder) node() *Node {
	nd := d.slab.node()
	nd.Kind = NodeKind(d.varint(3, "node kind"))
	nd.Divide = DivideKind(d.varint(3, "divide kind"))
	nd.Verts = d.slab.intSlice(d.length(d.n, "vertex count"))
	prev := -1
	for i := range nd.Verts {
		prev += 1 + d.varint(d.n-prev-1, "vertex")
		nd.Verts[i] = prev
	}
	if d.length(d.n, "label count") != len(nd.Verts) {
		d.fail("label count")
	}
	nd.gammaVal = d.slab.intSlice(len(nd.Verts))
	for i := range nd.gammaVal {
		nd.gammaVal[i] = d.varint(d.n, "label")
	}
	if d.err == nil && len(d.data)-d.p < certLen {
		d.fail("certificate")
	}
	if d.err != nil {
		return nd
	}
	nd.Cert = d.slab.bytesCopy(d.data[d.p : d.p+certLen])
	d.p += certLen
	switch nd.Kind {
	case KindSingleton:
		if len(nd.Verts) != 1 {
			d.fail("singleton size")
		}
	case KindLeaf:
		d.leaf(nd)
	case KindInternal:
		nc := d.length(len(nd.Verts), "child count")
		if nc == 0 {
			d.fail("child count")
		}
		nd.Children = make([]*Node, nc)
		for i := 0; i < nc && d.err == nil; i++ {
			nd.Children[i] = d.node()
		}
	}
	return nd
}

// leaf decodes a leaf's local generators, each a permutation of its
// local vertex order, and its local graph.
func (d *decoder) leaf(nd *Node) {
	k := len(nd.Verts)
	count := d.length(d.n, "local generator count")
	if count > 0 && (k == 0 || count*k > len(d.data)-d.p) {
		d.fail("local generator count")
	}
	if d.err == nil && count > 0 {
		flat := d.slab.intSlice(count * k)
		seen := make([]bool, k)
		nd.localGens = make([]perm.Perm, count)
		for i := range nd.localGens {
			lg := perm.Perm(flat[i*k : (i+1)*k : (i+1)*k])
			clear(seen)
			for j := range lg {
				lg[j] = d.varint(k, "local generator")
				if seen[lg[j]] {
					d.fail("local generator")
				}
				seen[lg[j]] = true
			}
			nd.localGens[i] = lg
		}
	}
	if ln := d.varint(d.n+1, "local graph size"); ln != k {
		d.fail("local graph size")
	} else if ln > 0 {
		nd.localGraph = d.localGraph(ln)
	}
}

// localGraph decodes a leaf's local graph on ln vertices straight into
// CSR. The first pass checks the rows and counts degrees; the second
// fills each row with its lower neighbors, in the order their own rows
// come, then its higher ones, so every row comes out sorted.
func (d *decoder) localGraph(ln int) *graph.Graph {
	start := d.p
	offsets := make([]int32, ln+1)
	m := 0
	for u := 0; u < ln; u++ {
		k := d.varint(ln-u, "local degree")
		w := u
		for j := 0; j < k; j++ {
			w += 1 + d.varint(ln-w-1, "local edge")
			if d.err != nil {
				return nil
			}
			offsets[w]++
		}
		offsets[u] += int32(k)
		m += k
	}
	if d.err != nil {
		return nil
	}
	// offsets[u] becomes the start of row u; filling advances it to the
	// end of row u, the start of row u+1.
	sum := int32(0)
	for u := 0; u < ln; u++ {
		offsets[u], sum = sum, sum+offsets[u]
	}
	adj := make([]int32, 2*m)
	d.p = start
	for u := 0; u < ln; u++ {
		k := d.varint(ln-u, "local degree")
		w := u
		for j := 0; j < k; j++ {
			w += 1 + d.varint(ln-w-1, "local edge")
			adj[offsets[u]], adj[offsets[w]] = int32(w), int32(u)
			offsets[u]++
			offsets[w]++
		}
	}
	copy(offsets[1:], offsets[:ln])
	offsets[0] = 0
	return d.slab.graph(offsets, adj)
}
