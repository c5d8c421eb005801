package dvicl

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dvicl/internal/store"
)

// TestShardedIndexDeterministicIDs: for a fixed shard count, the id
// sequence assigned to a stream of adds is a pure function of the input
// order — two fresh indexes given the same stream agree exactly.
func TestShardedIndexDeterministicIDs(t *testing.T) {
	graphs := indexTestGraphs()
	run := func() []int {
		ix := openMem(t, IndexOptions{Shards: 4})
		var ids []int
		for i := 0; i < 3; i++ {
			for _, g := range graphs {
				id, _, err := ix.Add(g)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id %d differs between identical runs: %d != %d", i, a[i], b[i])
		}
	}
	// Certificates are shard-independent: a single-shard index groups the
	// same stream into the same classes.
	single := NewGraphIndex(Options{})
	sharded := openMem(t, IndexOptions{Shards: 8})
	for _, g := range graphs {
		mustAdd(t, single, g)
		mustAdd(t, sharded, g)
	}
	if single.Classes() != sharded.Classes() || single.Len() != sharded.Len() {
		t.Fatalf("single %d/%d vs sharded %d/%d",
			single.Len(), single.Classes(), sharded.Len(), sharded.Classes())
	}
}

// TestShardedIndexPersistence: a sharded on-disk index reloads with
// identical lookups, and the manifest makes the shard count sticky — a
// reopen requesting a different count adopts the on-disk one.
func TestShardedIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	graphs := indexTestGraphs()

	ix, err := OpenGraphIndex(dir, IndexOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var lookups [][]int
	for _, g := range graphs {
		mustAdd(t, ix, g)
	}
	for _, g := range graphs {
		lookups = append(lookups, ix.Lookup(g))
	}
	st := ix.Stats()
	if st.Shards != 4 || len(st.ShardGraphs) != 4 {
		t.Fatalf("stats: %+v", st)
	}
	sum := 0
	for _, n := range st.ShardGraphs {
		sum += n
	}
	if sum != len(graphs) || st.Duplicates != len(graphs)-4 {
		t.Fatalf("shard balance %v (sum %d), duplicates %d", st.ShardGraphs, sum, st.Duplicates)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for 16 shards: the manifest wins, ids are unchanged.
	ix2, err := OpenGraphIndex(dir, IndexOptions{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.Stats().Shards; got != 4 {
		t.Fatalf("reopened shard count = %d, want manifest's 4", got)
	}
	for i, g := range graphs {
		got := ix2.Lookup(g)
		if len(got) != len(lookups[i]) {
			t.Fatalf("graph %d: lookup %v != %v", i, got, lookups[i])
		}
		for j := range got {
			if got[j] != lookups[i][j] {
				t.Fatalf("graph %d: lookup %v != %v", i, got, lookups[i])
			}
		}
	}
}

// TestShardedIndexSingleShardLayout: a directory created by a
// single-shard index (index.wal at the root, no manifest)
// reopens as one shard even when more are requested.
func TestShardedIndexSingleShardLayout(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := indexTestGraphs()
	for _, g := range graphs {
		mustAdd(t, ix, g)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("single-shard index wrote a manifest: %v", err)
	}

	ix2, err := OpenGraphIndex(dir, IndexOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.Stats().Shards; got != 1 {
		t.Fatalf("single-shard layout adopted as %d shards, want 1", got)
	}
	if ix2.Len() != len(graphs) {
		t.Fatalf("single-shard reload lost graphs: %d", ix2.Len())
	}
}

// TestShardedIndexCrashRecovery is the multi-WAL kill -9 scenario: no
// Close, plus a torn partial record appended to every shard WAL by hand. Reopening must recover every acknowledged add
// and report the torn tails.
func TestShardedIndexCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	graphs := indexTestGraphs()

	ix, err := OpenGraphIndex(dir, IndexOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 4; i++ {
		for _, g := range graphs {
			id, _, err := ix.Add(g)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	// No Close — "crashed". Tear every shard WAL that exists.
	torn := 0
	for i := 0; i < shards; i++ {
		wal := filepath.Join(dir, store.ShardDir(i), store.WALName)
		if _, err := os.Stat(wal); err != nil {
			continue
		}
		f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x10, 0x00}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		torn += 2
	}
	if torn == 0 {
		t.Fatal("no shard WALs found to tear")
	}

	ix2, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	st := ix2.Stats()
	if st.Graphs != 4*len(graphs) || st.Shards != shards {
		t.Fatalf("recovery stats: %+v", st)
	}
	if st.RecoveredBytes != int64(torn) {
		t.Fatalf("recovered bytes = %d, want %d", st.RecoveredBytes, torn)
	}
	k := 0
	for i := 0; i < 4; i++ {
		for _, g := range graphs {
			got := ix2.Lookup(g)
			found := false
			for _, id := range got {
				if id == ids[k] {
					found = true
				}
			}
			if !found {
				t.Fatalf("add %d: id %d missing from lookup %v", k, ids[k], got)
			}
			k++
		}
	}
}

// TestShardedIndexHammer is the -race stress for the sharded index:
// concurrent bulk-style AddCert traffic, graph Adds, Lookups, and Stats
// against a persistent 4-shard index. Then a reload verifies nothing
// acknowledged was lost.
func TestShardedIndexHammer(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenGraphIndex(dir, IndexOptions{Shards: 4, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	graphs := indexTestGraphs()
	certs := make([]string, len(graphs))
	for i, g := range graphs {
		certs[i] = ix.Certificate(g)
	}

	const workers = 8
	const opsPerWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := (w + i) % len(graphs)
				switch i % 3 {
				case 0: // bulk path
					if _, _, err := ix.AddCert(certs[k]); err != nil {
						t.Error(err)
						return
					}
				case 1: // interactive path
					if _, _, err := ix.Add(graphs[k]); err != nil {
						t.Error(err)
						return
					}
				default:
					ix.Lookup(graphs[k])
				}
				_ = ix.Stats()
			}
		}(w)
	}
	wg.Wait()

	wantGraphs := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPerWorker; i++ {
			if i%3 != 2 {
				wantGraphs++
			}
		}
	}
	if ix.Len() != wantGraphs || ix.Classes() != 4 {
		t.Fatalf("len=%d classes=%d, want %d/4", ix.Len(), ix.Classes(), wantGraphs)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != wantGraphs || ix2.Classes() != 4 {
		t.Fatalf("reloaded len=%d classes=%d", ix2.Len(), ix2.Classes())
	}
	total := 0
	for _, g := range graphs[:4] {
		total += len(ix2.Lookup(g))
	}
	if total != wantGraphs {
		t.Fatalf("class sizes sum to %d, want %d", total, wantGraphs)
	}
}
