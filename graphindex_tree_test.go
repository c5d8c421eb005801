package dvicl

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func counterVal(t *testing.T, r *MetricsRecorder, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q not in snapshot", name)
	}
	return v
}

// symAnswers serializes every symmetry-query answer for id into a
// comparable byte string.
func symAnswers(t *testing.T, ix *GraphIndex, id int) []byte {
	t.Helper()
	ctx := context.Background()
	orbits, err := ix.OrbitsCtx(ctx, id)
	if err != nil {
		t.Fatalf("orbits(%d): %v", id, err)
	}
	order, gens, err := ix.AutGroupCtx(ctx, id)
	if err != nil {
		t.Fatalf("autgroup(%d): %v", id, err)
	}
	q, err := ix.QuotientCtx(ctx, id)
	if err != nil {
		t.Fatalf("quotient(%d): %v", id, err)
	}
	count, images, err := ix.SSMCtx(ctx, id, []int{0, 1}, 4)
	if err != nil {
		t.Fatalf("ssm(%d): %v", id, err)
	}
	blob, err := json.Marshal(map[string]any{
		"orbits":   orbits,
		"order":    order.String(),
		"gens":     gens,
		"qedges":   q.Graph.Edges(),
		"orbit_of": q.OrbitOf,
		"count":    count.String(),
		"images":   images,
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestIndexSymmetryWarmPathZeroBuilds pins the headline property: once a
// class's tree is cached, symmetry queries perform zero DviCL builds —
// the tree_rebuilds counter does not move on the warm path.
func TestIndexSymmetryWarmPathZeroBuilds(t *testing.T) {
	rec := NewMetricsRecorder()
	ix := openMem(t, IndexOptions{
		DviCL:     Options{Obs: rec},
		TreeStore: &TreeStoreOptions{},
	})

	var ids []int
	for _, g := range indexTestGraphs() {
		id, _, err := ix.Add(g)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// First pass may rebuild (or hit trees the write-behind already
	// ensured); afterwards every class is in the decoded-tree cache.
	for _, id := range ids {
		symAnswers(t, ix, id)
	}
	rebuilds := counterVal(t, rec, "tree_rebuilds")
	warm := make(map[int][]byte)
	for _, id := range ids {
		warm[id] = symAnswers(t, ix, id)
	}
	if got := counterVal(t, rec, "tree_rebuilds"); got != rebuilds {
		t.Fatalf("warm-path queries rebuilt trees: tree_rebuilds %d -> %d", rebuilds, got)
	}
	if counterVal(t, rec, "treestore_mem_hits") == 0 {
		t.Fatal("warm-path queries recorded no treestore_mem_hits")
	}
	// Isomorphic graphs answer identically (class-level semantics).
	graphs := indexTestGraphs()
	for i := 0; i < 4; i++ {
		a, b := warm[ids[i]], warm[ids[i+4]]
		if string(a) != string(b) {
			t.Fatalf("isomorphic graphs %d and %d answer differently", ids[i], ids[i+4])
		}
		_ = graphs
	}
}

// TestIndexTreeStoreRestart: answers survive Close/reopen byte-identical,
// and after the restart the trees come from disk — zero rebuilds.
func TestIndexTreeStoreRestart(t *testing.T) {
	dir := t.TempDir()
	opt := IndexOptions{Shards: 2, TreeStore: &TreeStoreOptions{}}

	ix, err := OpenGraphIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, g := range indexTestGraphs() {
		id, _, err := ix.Add(g)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := make(map[int][]byte)
	for _, id := range ids {
		before[id] = symAnswers(t, ix, id)
	}
	if st := ix.Stats(); st.TreeStore == nil || !st.TreeStore.Persistent {
		t.Fatalf("stats missing persistent tree store: %+v", st.TreeStore)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	rec := NewMetricsRecorder()
	opt.DviCL.Obs = rec
	ix2, err := OpenGraphIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	for _, id := range ids {
		if got := symAnswers(t, ix2, id); string(got) != string(before[id]) {
			t.Fatalf("id %d: answers changed across restart\nbefore %s\nafter  %s", id, before[id], got)
		}
	}
	if got := counterVal(t, rec, "tree_rebuilds"); got != 0 {
		t.Fatalf("restart queries rebuilt %d trees; want 0 (disk hits)", got)
	}
	if counterVal(t, rec, "treestore_disk_hits") == 0 {
		t.Fatal("restart queries recorded no treestore_disk_hits")
	}
}

// TestIndexTreeStoreCorruptFallsBack: flipping bytes in every stored tree
// record degrades to exactly one recompute per class — same answers, no
// errors — and the store heals (second pass serves from memory).
func TestIndexTreeStoreCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	opt := IndexOptions{TreeStore: &TreeStoreOptions{}}

	ix, err := OpenGraphIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	graphs := indexTestGraphs()[:4] // one per isomorphism class
	var ids []int
	before := make(map[int][]byte)
	for _, g := range graphs {
		id, _, err := ix.Add(g)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		before[id] = symAnswers(t, ix, id)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []string
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".tree" {
			recs = append(recs, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ids) {
		t.Fatalf("found %d tree records; want %d", len(recs), len(ids))
	}
	for _, path := range recs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec := NewMetricsRecorder()
	opt.DviCL.Obs = rec
	ix2, err := OpenGraphIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	for _, id := range ids {
		if got := symAnswers(t, ix2, id); string(got) != string(before[id]) {
			t.Fatalf("id %d: corrupt-fallback answer differs", id)
		}
	}
	if got := counterVal(t, rec, "treestore_corrupt"); got != int64(len(ids)) {
		t.Fatalf("treestore_corrupt = %d; want %d", got, len(ids))
	}
	if got := counterVal(t, rec, "tree_rebuilds"); got != int64(len(ids)) {
		t.Fatalf("tree_rebuilds = %d; want exactly one recompute per class (%d)", got, len(ids))
	}
	rebuilds := counterVal(t, rec, "tree_rebuilds")
	for _, id := range ids {
		symAnswers(t, ix2, id)
	}
	if got := counterVal(t, rec, "tree_rebuilds"); got != rebuilds {
		t.Fatalf("post-heal queries rebuilt again: %d -> %d", rebuilds, got)
	}
}

// TestIndexSymmetryWithoutTreeStore: an index opened without a tree
// store still answers every symmetry query by rebuilding per call —
// one rebuild and no cache hit per sequential query — and reports no
// tree-store stats.
func TestIndexSymmetryWithoutTreeStore(t *testing.T) {
	rec := NewMetricsRecorder()
	ix := NewGraphIndex(Options{Obs: rec})
	id, _, err := ix.Add(indexTestGraphs()[0])
	if err != nil {
		t.Fatal(err)
	}
	a := symAnswers(t, ix, id)
	b := symAnswers(t, ix, id)
	if string(a) != string(b) {
		t.Fatal("storeless symmetry answers not deterministic")
	}
	if got := counterVal(t, rec, "tree_rebuilds"); got != 8 {
		t.Fatalf("storeless path: tree_rebuilds = %d, want 8 (one per query)", got)
	}
	if got := counterVal(t, rec, "treestore_mem_hits"); got != 0 {
		t.Fatalf("storeless path: treestore_mem_hits = %d, want 0", got)
	}
	if st := ix.Stats(); st.TreeStore != nil {
		t.Fatalf("storeless index reports tree-store stats: %+v", st.TreeStore)
	}
}

// TestIndexSymmetryErrors: unknown ids and malformed SSM patterns return
// the typed sentinels.
func TestIndexSymmetryErrors(t *testing.T) {
	ix := openMem(t, IndexOptions{TreeStore: &TreeStoreOptions{}})
	id, _, err := ix.Add(indexTestGraphs()[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.OrbitsCtx(ctx, id+1000); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id: got %v", err)
	}
	if _, err := ix.OrbitsCtx(ctx, -1); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("negative id: got %v", err)
	}
	if _, _, err := ix.SSMCtx(ctx, id, []int{0, 99}, 0); !errors.Is(err, ErrInvalidPattern) {
		t.Fatalf("out-of-range pattern: got %v", err)
	}
	if _, _, err := ix.SSMCtx(ctx, id, []int{1, 1}, 0); !errors.Is(err, ErrInvalidPattern) {
		t.Fatalf("duplicate pattern: got %v", err)
	}
}

// TestSymmetryQueryCountersCountAnswers: the symmetry_query_* counters
// count answered queries; a query for an unknown id is not one.
func TestSymmetryQueryCountersCountAnswers(t *testing.T) {
	rec := NewMetricsRecorder()
	ix := openMem(t, IndexOptions{DviCL: Options{Obs: rec}, TreeStore: &TreeStoreOptions{}})
	id, _, err := ix.Add(indexTestGraphs()[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.OrbitsCtx(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.OrbitsCtx(ctx, id+1000); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id: got %v", err)
	}
	if got := counterVal(t, rec, "symmetry_query_orbits"); got != 1 {
		t.Fatalf("symmetry_query_orbits = %d after one answered and one unknown-id query, want 1", got)
	}
}

// TestIndexCloseStopsSymmetryQueries: after Close, queries fail with
// ErrIndexClosed rather than hanging or panicking.
func TestIndexCloseStopsSymmetryQueries(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenGraphIndex(dir, IndexOptions{TreeStore: &TreeStoreOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := ix.Add(indexTestGraphs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Ready(); err != nil {
		t.Fatalf("open index not ready: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.OrbitsCtx(context.Background(), id); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("post-close query: got %v", err)
	}
	if err := ix.Ready(); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("post-close Ready: got %v", err)
	}
}
