package dvicl

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dvicl/internal/store"
)

// indexTestGraphs returns a mixed bag of small graphs with several
// isomorphism classes, including relabeled duplicates.
func indexTestGraphs() []*Graph {
	c6 := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	p6 := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	star := FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	twoTri := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	return []*Graph{
		c6, p6, star, twoTri,
		c6.Permute([]int{3, 0, 5, 1, 4, 2}),
		p6.Permute([]int{5, 4, 3, 2, 1, 0}),
		star.Permute([]int{1, 0, 2, 3, 4, 5}),
		twoTri.Permute([]int{2, 1, 0, 5, 4, 3}),
	}
}

// openMem opens an in-memory index, closed when the test ends.
func openMem(t *testing.T, opt IndexOptions) *GraphIndex {
	t.Helper()
	ix, err := OpenGraphIndex("", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func mustAdd(t *testing.T, ix *GraphIndex, g *Graph) (int, bool) {
	t.Helper()
	id, dup, err := ix.Add(g)
	if err != nil {
		t.Fatal(err)
	}
	return id, dup
}

func TestGraphIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	graphs := indexTestGraphs()

	ix, err := OpenGraphIndex(dir, IndexOptions{})
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
	if ix.Len() != len(graphs) || ix.Classes() != 4 {
		t.Fatalf("len=%d classes=%d", ix.Len(), ix.Classes())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent; post-close Adds fail typed.
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := ix.Add(graphs[0]); err != ErrIndexClosed {
		t.Fatalf("Add after Close: %v", err)
	}

	// Reopen: identical ids for the same Lookup batch.
	ix2, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != len(graphs) || ix2.Classes() != 4 {
		t.Fatalf("reloaded len=%d classes=%d", ix2.Len(), ix2.Classes())
	}
	for i, g := range graphs {
		got := ix2.Lookup(g)
		want := lookups[i]
		if len(got) != len(want) {
			t.Fatalf("graph %d: lookup %v != %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("graph %d: lookup %v != %v", i, got, want)
			}
		}
	}
	st := ix2.Stats()
	if !st.Persistent || st.ReplayedRecords != len(graphs) || st.RecoveredBytes != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
}

// TestGraphIndexCrashRecovery simulates kill -9: the index is never
// closed, and a torn partial record is appended to the WAL by hand.
// Reopening must recover every acknowledged Add and report the torn tail.
func TestGraphIndexCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	graphs := indexTestGraphs()

	ix, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, g := range graphs {
		id, _ := mustAdd(t, ix, g)
		ids = append(ids, id)
	}
	// No Close — "crashed". Tear the WAL tail like an interrupted write.
	f, err := os.OpenFile(filepath.Join(dir, store.WALName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ix2, err := OpenGraphIndex(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	st := ix2.Stats()
	if st.Graphs != len(graphs) || st.ReplayedRecords != len(graphs) || st.RecoveredBytes != 3 {
		t.Fatalf("recovery stats: %+v", st)
	}
	for i, g := range graphs {
		got := ix2.Lookup(g)
		found := false
		for _, id := range got {
			if id == ids[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("graph %d: id %d missing from lookup %v", i, ids[i], got)
		}
	}
}

func TestGraphIndexCacheHits(t *testing.T) {
	ix := NewGraphIndex(Options{})
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	mustAdd(t, ix, g)
	for i := 0; i < 10; i++ {
		if got := ix.Lookup(g); len(got) != 1 || got[0] != 0 {
			t.Fatalf("lookup %d: %v", i, got)
		}
	}
	st := ix.Stats()
	// Add misses once; the 10 Lookups of the identical labeled graph hit.
	if st.CacheMisses != 1 || st.CacheHits != 10 || st.CacheEntries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// A relabeled copy is a different labeled graph: cache miss, same
	// class. (The permutation must not be an automorphism of C5, or the
	// labeled graph — and its hash — would be unchanged.)
	if got := ix.Lookup(g.Permute([]int{0, 2, 1, 3, 4})); len(got) != 1 {
		t.Fatalf("relabeled lookup: %v", got)
	}
	if st := ix.Stats(); st.CacheMisses != 2 {
		t.Fatalf("cache stats after relabeled probe: %+v", st)
	}
}

func TestGraphIndexCacheEviction(t *testing.T) {
	ix := NewGraphIndex(Options{})
	ix.cache = newCertCache(2, 1)
	gs := indexTestGraphs()[:4]
	for _, g := range gs {
		ix.Lookup(g)
	}
	if n := ix.cache.len(); n != 2 {
		t.Fatalf("cache entries = %d, want capacity 2", n)
	}
	// Oldest entries were evicted: probing them misses again.
	before := ix.cache.misses.Load()
	ix.Lookup(gs[0])
	if got := ix.cache.misses.Load(); got != before+1 {
		t.Fatalf("expected evicted entry to miss (misses %d -> %d)", before, got)
	}
}

// TestGraphIndexConcurrentAddLookup is the -race hammer for the
// documented concurrency contract: many goroutines Add, Lookup and read
// Stats concurrently on a persistent index.
func TestGraphIndexConcurrentAddLookup(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenGraphIndex(dir, IndexOptions{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	graphs := indexTestGraphs()

	const workers = 8
	const opsPerWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				g := graphs[(w+i)%len(graphs)]
				if i%2 == 0 {
					if _, _, err := ix.Add(g); err != nil {
						t.Error(err)
						return
					}
				} else {
					ix.Lookup(g)
				}
				_ = ix.Stats()
			}
		}(w)
	}
	wg.Wait()

	wantGraphs := workers * opsPerWorker / 2
	if ix.Len() != wantGraphs || ix.Classes() != 4 {
		t.Fatalf("len=%d classes=%d, want %d/4", ix.Len(), ix.Classes(), wantGraphs)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload and verify class sizes survived the concurrent load intact.
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

// TestGraphIndexCloseInMemory: Close closes an in-memory index like a
// durable one — Adds and Ready fail with ErrIndexClosed afterwards, and
// a second Close is a no-op.
func TestGraphIndexCloseInMemory(t *testing.T) {
	ix := NewGraphIndex(Options{})
	g := indexTestGraphs()[0]
	mustAdd(t, ix, g)
	if err := ix.Ready(); err != nil {
		t.Fatalf("Ready before Close: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(g); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Add after Close: got %v, want ErrIndexClosed", err)
	}
	if err := ix.Ready(); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Ready after Close: got %v, want ErrIndexClosed", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len after Close = %d, want 1", ix.Len())
	}
}

// TestGraphIndexAddCloseRace: Adds race Close. Each Add either succeeds
// or returns ErrIndexClosed, and a reopen finds every acknowledged Add
// under its id and nothing else.
func TestGraphIndexAddCloseRace(t *testing.T) {
	graphs := indexTestGraphs()
	certOf := NewGraphIndex(Options{})
	var certs []string
	for _, g := range graphs {
		certs = append(certs, certOf.Certificate(g))
	}
	for iter := 0; iter < 50; iter++ {
		dir := t.TempDir()
		ix, err := OpenGraphIndex(dir, IndexOptions{CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		acked := map[string][]int{} // certificate -> acknowledged ids
		var wg sync.WaitGroup
		var first sync.Once
		adding := make(chan struct{}) // closed at the first acknowledged Add, or a worker's exit
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer first.Do(func() { close(adding) })
				for i := w; ; i++ {
					cert := certs[i%len(certs)]
					id, _, err := ix.AddCert(cert)
					if err != nil {
						if !errors.Is(err, ErrIndexClosed) {
							t.Error(err)
						}
						return
					}
					mu.Lock()
					acked[cert] = append(acked[cert], id)
					mu.Unlock()
					first.Do(func() { close(adding) })
				}
			}(w)
		}
		<-adding
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		ix2, err := OpenGraphIndex(dir, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, g := range graphs[:4] {
			want := acked[certs[i]]
			slices.Sort(want)
			total += len(want)
			if got := ix2.Lookup(g); !slices.Equal(got, want) {
				t.Fatalf("iter %d, class %d: reopened ids %v, acknowledged %v", iter, i, got, want)
			}
		}
		if ix2.Len() != total {
			t.Fatalf("iter %d: reopened %d graphs, %d acknowledged", iter, ix2.Len(), total)
		}
		if err := ix2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
