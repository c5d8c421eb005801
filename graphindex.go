package dvicl

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dvicl/internal/obs"
	"dvicl/internal/store"
	"dvicl/internal/treestore"
)

// ErrIndexClosed is returned by operations on a GraphIndex after Close.
var ErrIndexClosed = errors.New("dvicl: graph index closed")

// SchemeError is what OpenGraphIndex returns (match it with errors.As)
// for an index written under another certificate scheme than this
// build's: its certificates are not comparable with the ones this build
// computes, so the index must be re-ingested from its source graphs.
// Got and Want name the two schemes.
type SchemeError = store.SchemeError

// defaultCacheSize is the certificate cache size IndexOptions.CacheSize 0
// selects.
const defaultCacheSize = 4096

// IndexOptions configures a GraphIndex opened with OpenGraphIndex. The
// persistence knob SyncWrites applies only to an index with a data
// directory.
type IndexOptions struct {
	// DviCL configures the underlying certificate builds (zero value is
	// fine). Attach an observability recorder via DviCL.Obs to get the
	// index_*, cert_cache_* and wal_* counters.
	DviCL Options
	// CacheSize bounds the LRU certificate cache (entries, summed across
	// cache stripes). 0 means the default (4096); negative disables
	// caching.
	CacheSize int
	// SyncWrites fsyncs the WAL on every Add. Off, an acknowledged Add
	// survives process crash (kill -9) but not necessarily power loss.
	SyncWrites bool
	// CompactEvery is ignored. A shard's WAL is its whole on-disk state:
	// no Add removes or rewrites a certificate, so there is nothing to
	// compact. The field remains so that code setting it still compiles.
	CompactEvery int
	// Shards partitions the certificate map, cache, and WAL into this
	// many independently locked shards (certificates are hash-routed, so
	// isomorphic graphs always land on the same shard). 0 or 1 keeps the
	// original single-shard layout (index.wal at the root); a
	// sharded index writes an index.manifest plus shard-NNN/
	// subdirectories. The count is fixed at creation: reopening an
	// existing directory adopts the on-disk count and ignores this field.
	Shards int
	// TreeStore, when non-nil, keeps each class's AutoTree for the
	// symmetry queries (OrbitsCtx, AutGroupCtx, QuotientCtx, SSMCtx):
	// every Add of a new isomorphism class write-behind persists its tree
	// to its shard's store — on disk in a trees/ subdirectory of a durable
	// index, in memory otherwise — and decoded trees are cached. The
	// TreeStoreOptions Build and Obs fields are overridden with the
	// index's own DviCL options and recorder; MemBudget is the total
	// decoded-tree cache across all shards. With TreeStore nil the
	// symmetry queries still work but rebuild the tree on every call
	// (concurrent queries for one class share one rebuild).
	TreeStore *TreeStoreOptions
}

// TreeStoreOptions configures the AutoTree store of a GraphIndex (see
// IndexOptions.TreeStore) or a standalone store opened with
// OpenTreeStore.
type TreeStoreOptions = treestore.Options

// indexShard is one independently locked partition of a GraphIndex: a
// slice of the certificate space (hash-routed by certificate bytes) with
// its own class map, id list, and — when durable — its own WAL.
type indexShard struct {
	mu      sync.RWMutex
	classes map[string][]int // certificate -> local ids, insertion order
	certs   []string         // local id -> certificate
	closed  bool

	st *store.Store // nil for an in-memory index
	ts *treestore.Store
}

// GraphIndex is a canonical-certificate index over a collection of graphs
// — the paper's database-indexing application (introduction, (a)): every
// graph receives a certificate such that two graphs are isomorphic iff
// they share it, so duplicate detection and isomorphism lookup become
// map operations.
//
// An index is either in memory (OpenGraphIndex with an empty directory,
// or NewGraphIndex) or durable (OpenGraphIndex with a directory): the
// durable form write-through-logs every Add to a WAL, which is its whole
// on-disk state (see internal/store for the contract), so a restart —
// even after kill -9 — reloads the same id assignment.
//
// # Sharding
//
// The index is internally partitioned into IndexOptions.Shards
// independently locked shards. A certificate is routed to its shard by a
// hash of its bytes, so all graphs of one isomorphism class share a
// shard and dedup stays exact; each shard owns its slice of the class
// map plus — when durable — its own WAL. Ids encode the shard: id =
// localID·S + shardID, which keeps them unique, stable across restarts,
// and monotone within a shard. With Shards ≤ 1 the layout and ids are
// identical to the pre-shard single-lock index.
//
// # Concurrency
//
// GraphIndex is safe for concurrent use. The contract, relied on by the
// indexd daemon and the bulk-ingest pipeline:
//
//   - Certificate computation (the expensive DviCL build) runs *outside*
//     any index lock: CanonicalCert is a pure function of the graph, so
//     concurrent Adds and Lookups never serialize on it.
//   - Each shard's mutex guards only that shard's id/class maps and WAL
//     append, keeping critical sections O(1)-ish per operation and
//     making per-shard WAL order always match local id order. Adds to
//     different shards do not contend at all.
//   - Lookup takes only a read lock on one shard and may run concurrently
//     with other Lookups; a Lookup racing an Add of an isomorphic graph
//     may or may not see the new id, exactly like a map read racing a
//     map write under an RWMutex.
//   - Flush takes one shard's write lock at a time for its fsync; Adds
//     to other shards proceed unimpeded.
type GraphIndex struct {
	shards []*indexShard
	opt    Options
	cache  *certCache // nil when disabled

	dataDir string // index root; "" for an in-memory index
	closing atomic.Bool

	// Write-behind tree persistence, present only with
	// IndexOptions.TreeStore: Adds of new classes enqueue their
	// certificate (under the shard lock, so no enqueue can race Close);
	// tsWorkers goroutines drain the queue into the shard tree stores. A
	// full queue drops the persist — the treestore has cache semantics,
	// so a dropped entry merely costs a rebuild on first query.
	tsPersist  chan tsPersistReq // nil without IndexOptions.TreeStore
	tsPending  sync.WaitGroup    // queued-but-unpersisted certificates
	tsWorkerWG sync.WaitGroup    // running persist workers

	// Open-time recovery facts, summed across shards, surfaced in Stats.
	replayedAtOpen int
	recoveredBytes int64
}

// tsPersistReq asks a persist worker to make one certificate's AutoTree
// durable in one shard's tree store.
type tsPersistReq struct {
	ts   *treestore.Store
	cert string
}

// Write-behind persistence tuning: tsWorkers goroutines drain a queue of
// tsQueueLen certificates. The queue absorbs Add bursts; overflow drops
// the persist (counted as treestore_persist_dropped) rather than ever
// blocking an Add on tree serialization.
const (
	tsWorkers  = 2
	tsQueueLen = 1024
)

// shardOf routes a certificate to a shard number. FNV-1a over the
// certificate bytes: stable across processes and builds (the assignment
// must survive restarts, so runtime-seeded hashes are out), and cheap
// relative to the DviCL build that produced the certificate. All members
// of one isomorphism class share a certificate, hence a shard — the
// property exact dedup depends on.
func (ix *GraphIndex) shardOf(cert string) int {
	if len(ix.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(cert); i++ {
		h ^= uint64(cert[i])
		h *= prime64
	}
	return int(h % uint64(len(ix.shards)))
}

// globalID composes a shard-local id and shard number into the public id.
func (ix *GraphIndex) globalID(shard, local int) int {
	return local*len(ix.shards) + shard
}

func newShards(n int) []*indexShard {
	shards := make([]*indexShard, n)
	for i := range shards {
		shards[i] = &indexShard{classes: make(map[string][]int)}
	}
	return shards
}

// shardDir is shard i's directory: the index root of a single-shard
// index, its shard-NNN/ subdirectory otherwise.
func (ix *GraphIndex) shardDir(i int) string {
	if len(ix.shards) == 1 {
		return ix.dataDir
	}
	return filepath.Join(ix.dataDir, store.ShardDir(i))
}

// NewGraphIndex returns an empty in-memory single-shard index — the
// quick-start form of OpenGraphIndex("", IndexOptions{DviCL: opt}). opt
// configures the underlying DviCL runs (zero value is fine). The
// certificate cache is enabled at its default size.
func NewGraphIndex(opt Options) *GraphIndex {
	ix, err := OpenGraphIndex("", IndexOptions{DviCL: opt})
	if err != nil {
		// Unreachable: an in-memory index with one shard touches no disk.
		panic("dvicl: NewGraphIndex: " + err.Error())
	}
	return ix
}

// initTreeStores gives every shard an AutoTree store. With opt set, each
// store lives under <shard>/trees on a durable index (in memory
// otherwise), caches decoded trees under its even share of the
// index-wide MemBudget, and is fed by the write-behind persist workers
// started here. With opt nil, each store is memory-only with no cache
// and no workers: a symmetry query rebuilds its tree, and the store's
// single flight collapses concurrent rebuilds of one class.
func (ix *GraphIndex) initTreeStores(opt *TreeStoreOptions) error {
	topt := treestore.Options{MemBudget: -1}
	if opt != nil {
		topt = *opt
		if topt.MemBudget == 0 {
			topt.MemBudget = treestore.DefaultMemBudget
		}
		if per := topt.MemBudget / int64(len(ix.shards)); per > 0 {
			topt.MemBudget = per
		} else if topt.MemBudget > 0 {
			topt.MemBudget = 1
		}
	}
	topt.Build = ix.opt
	topt.Obs = ix.opt.Obs
	for i, sh := range ix.shards {
		tdir := ""
		if opt != nil && ix.dataDir != "" {
			tdir = filepath.Join(ix.shardDir(i), "trees")
		}
		ts, err := treestore.Open(tdir, topt)
		if err != nil {
			for _, prev := range ix.shards[:i] {
				prev.ts.Close()
			}
			return fmt.Errorf("dvicl: shard %d tree store: %w", i, err)
		}
		sh.ts = ts
	}
	if opt != nil {
		ix.tsPersist = make(chan tsPersistReq, tsQueueLen)
		for w := 0; w < tsWorkers; w++ {
			ix.tsWorkerWG.Add(1)
			go ix.persistWorker()
		}
	}
	return nil
}

// persistWorker drains the write-behind queue. Persist failures are
// swallowed: the treestore has cache semantics, so a failed persist only
// costs a rebuild on the first query for that class.
func (ix *GraphIndex) persistWorker() {
	defer ix.tsWorkerWG.Done()
	for req := range ix.tsPersist {
		_, _ = req.ts.Get(context.Background(), []byte(req.cert))
		ix.tsPending.Done()
	}
}

// OpenGraphIndex opens an index. With a directory it is durable: dir is
// created if needed and the WAL of every shard found there is replayed,
// after the snapshot an older build may have left (Stats reports what
// was recovered); an index written under another certificate scheme
// fails with a *SchemeError. With dir == "" the index lives in memory
// and starts empty; SyncWrites is ignored and any tree stores are
// memory-only. See IndexOptions for the knobs. The caller
// must Close the index: a durable one syncs and releases its WALs, and
// Close stops the tree-store persist workers either way.
func OpenGraphIndex(dir string, opt IndexOptions) (*GraphIndex, error) {
	nShards := max(opt.Shards, 1)
	if nShards > store.MaxShards {
		return nil, fmt.Errorf("dvicl: %d shards exceeds limit %d", nShards, store.MaxShards)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// The on-disk layout wins over the requested count: a manifest
		// pins the shard count; a manifest-less directory with index files
		// at its root is a single-shard index (which never writes a
		// manifest).
		switch m, err := store.ReadManifest(dir); {
		case err == nil:
			nShards = m.Shards
		case errors.Is(err, os.ErrNotExist):
			if singleShardLayout(dir) {
				nShards = 1
			} else if nShards > 1 {
				m := store.Manifest{Version: store.Version, Shards: nShards, TreeStore: opt.TreeStore != nil}
				if err := store.WriteManifest(dir, m); err != nil {
					return nil, err
				}
			}
		default:
			return nil, err
		}
	}

	ix := &GraphIndex{
		shards:  newShards(nShards),
		opt:     opt.DviCL,
		dataDir: dir,
	}
	if cacheSize := cmp.Or(opt.CacheSize, defaultCacheSize); cacheSize > 0 {
		ix.cache = newCertCache(cacheSize, nShards)
	}

	if dir != "" {
		for i, sh := range ix.shards {
			st, res, err := store.Open(ix.shardDir(i), store.Options{Sync: opt.SyncWrites})
			if err != nil {
				for _, prev := range ix.shards[:i] {
					prev.st.Close()
				}
				return nil, fmt.Errorf("dvicl: shard %d: %w", i, err)
			}
			sh.st = st
			sh.certs = res.Certs
			sh.classes = make(map[string][]int, len(res.Certs))
			for local, cert := range sh.certs {
				sh.classes[cert] = append(sh.classes[cert], local)
			}
			ix.replayedAtOpen += res.WALReplayed
			ix.recoveredBytes += res.TornBytes
		}
	}
	if err := ix.initTreeStores(opt.TreeStore); err != nil {
		for _, sh := range ix.shards {
			if sh.st != nil {
				sh.st.Close()
			}
		}
		return nil, err
	}
	ix.opt.Obs.Add(obs.WALReplayed, int64(ix.replayedAtOpen))
	return ix, nil
}

// singleShardLayout reports whether dir holds a single-shard index
// (index.wal, or an older build's index.snap, directly at the root).
// Single-shard indexes
// write no manifest, so this is how every one of them is recognized on
// reopen — without it, reopening one with Shards > 1 would start an
// empty sharded index beside the existing data.
func singleShardLayout(dir string) bool {
	for _, name := range []string{store.SnapshotName, store.WALName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// Add inserts a graph and returns its id and whether an isomorphic graph
// was already present. On a durable index the Add is acknowledged only
// after its WAL record is written (and fsynced under SyncWrites); the
// error is non-nil exactly when the record could not be persisted, in
// which case the in-memory index is unchanged.
func (ix *GraphIndex) Add(g *Graph) (id int, duplicate bool, err error) {
	return ix.AddCtx(context.Background(), g)
}

// AddCtx is Add with a context bounding the certificate build: if ctx is
// canceled (or the index's Budget is exhausted) mid-canonicalization, the
// build stops promptly and AddCtx returns ErrCanceled/ErrBudgetExceeded
// with the index unchanged. The shard insert itself is not cancelable —
// once the certificate exists the insert is O(1) plus a WAL append.
func (ix *GraphIndex) AddCtx(ctx context.Context, g *Graph) (id int, duplicate bool, err error) {
	ctx, rec, span := obs.Start(ctx, ix.opt.Obs, obs.PhaseIndexAdd) // the build span nests below
	defer span.End()
	rec.Inc(obs.IndexAdds)

	cert, err := ix.certOfCtx(ctx, g) // outside any lock: pure, possibly expensive
	if err != nil {
		return 0, false, err
	}
	return ix.addCert(cert, rec)
}

// AddCert inserts a precomputed canonical certificate, exactly as if the
// graph it certifies had been Added. It is the apply step of the bulk
// pipeline, where certificates were already built by parallel workers;
// normal callers use Add.
func (ix *GraphIndex) AddCert(cert string) (id int, duplicate bool, err error) {
	return ix.AddCertCtx(context.Background(), cert)
}

// AddCertCtx is AddCert under a context: the insert itself is not
// cancelable (O(1) plus a WAL append), but a trace on ctx receives the
// index/WAL counters as request deltas. No span is recorded — bulk apply
// calls this once per record, and span-per-record would drown the tree.
func (ix *GraphIndex) AddCertCtx(ctx context.Context, cert string) (id int, duplicate bool, err error) {
	rec := obs.RecorderFor(ctx, ix.opt.Obs)
	rec.Inc(obs.IndexAdds)
	return ix.addCert(cert, rec)
}

func (ix *GraphIndex) addCert(cert string, rec *obs.Recorder) (id int, duplicate bool, err error) {
	shardID := ix.shardOf(cert)
	sh := ix.shards[shardID]

	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0, false, ErrIndexClosed
	}
	if sh.st != nil {
		wspan := obs.StartUnder(rec, nil, obs.PhaseWALAppend)
		_, werr := sh.st.Append(cert)
		wspan.End()
		if werr != nil {
			sh.mu.Unlock()
			return 0, false, werr
		}
		rec.Inc(obs.WALAppends)
	}
	local := len(sh.certs)
	sh.certs = append(sh.certs, cert)
	members := sh.classes[cert]
	sh.classes[cert] = append(members, local)
	if ix.tsPersist != nil && len(members) == 0 {
		// First member of a new class: write-behind persist its AutoTree.
		// Enqueued under the shard lock — Close marks every shard closed
		// under the same locks before draining, so no enqueue races the
		// channel close. A full queue drops the persist (cache semantics:
		// the first query for the class rebuilds it).
		ix.tsPending.Add(1)
		select {
		case ix.tsPersist <- tsPersistReq{ts: sh.ts, cert: cert}:
		default:
			ix.tsPending.Done()
			rec.Inc(obs.TreeStorePersistDropped)
		}
	}
	sh.mu.Unlock()

	duplicate = len(members) > 0
	if duplicate {
		rec.Inc(obs.IndexAddDuplicate)
	}
	return ix.globalID(shardID, local), duplicate, nil
}

// Lookup returns the ids of the stored graphs isomorphic to g. The
// certificate is computed (or served from the cache) outside any lock;
// only one shard's class-map read is guarded.
func (ix *GraphIndex) Lookup(g *Graph) []int {
	ids, _ := ix.LookupCtx(context.Background(), g)
	return ids
}

// LookupCtx is Lookup with a context bounding the certificate build; on
// cancellation or budget exhaustion it returns a nil slice and the typed
// error.
func (ix *GraphIndex) LookupCtx(ctx context.Context, g *Graph) ([]int, error) {
	ctx, rec, span := obs.Start(ctx, ix.opt.Obs, obs.PhaseIndexLookup)
	defer span.End()
	rec.Inc(obs.IndexLookups)

	cert, err := ix.certOfCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	shardID := ix.shardOf(cert)
	sh := ix.shards[shardID]
	sh.mu.RLock()
	locals := sh.classes[cert]
	ids := make([]int, len(locals))
	for i, local := range locals {
		ids[i] = ix.globalID(shardID, local)
	}
	sh.mu.RUnlock()
	if len(ids) == 0 {
		return nil, nil
	}
	return ids, nil
}

// Len returns the number of stored graphs.
func (ix *GraphIndex) Len() int {
	n := 0
	for _, sh := range ix.shards {
		sh.mu.RLock()
		n += len(sh.certs)
		sh.mu.RUnlock()
	}
	return n
}

// Classes returns the number of distinct isomorphism classes stored.
func (ix *GraphIndex) Classes() int {
	n := 0
	for _, sh := range ix.shards {
		sh.mu.RLock()
		n += len(sh.classes)
		sh.mu.RUnlock()
	}
	return n
}

// Flush fsyncs every shard's WAL, so every Add acknowledged before it
// survives power loss even without SyncWrites. Each shard is synced under
// its own lock, so Adds to other shards proceed meanwhile. A no-op on an
// in-memory index.
func (ix *GraphIndex) Flush() error {
	if ix.dataDir == "" {
		return nil
	}
	for _, sh := range ix.shards {
		sh.mu.Lock()
		err := ErrIndexClosed
		if !sh.closed {
			err = sh.st.Sync()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains the write-behind tree persists, closes the tree stores,
// and closes the WALs of a durable index, which syncs them. Afterwards
// Add, the symmetry queries and Ready return ErrIndexClosed, as do
// Flushes of a durable index; reads of what was stored (Lookup, Len,
// Stats) keep working. Close itself is idempotent.
func (ix *GraphIndex) Close() error {
	if !ix.closing.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range ix.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	if ix.tsPersist != nil {
		// Shards are closed, so no new enqueues: wait out the queued
		// persists, then retire the workers. Tree stores must outlive this
		// drain, hence they close below.
		ix.tsPending.Wait()
		close(ix.tsPersist)
		ix.tsWorkerWG.Wait()
	}

	var firstErr error
	for _, sh := range ix.shards {
		sh.mu.Lock()
		if err := sh.ts.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if sh.st != nil {
			if err := sh.st.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Ready reports whether the index can serve and persist: nil when the
// index is open and — for a durable index — its data directory is still
// writable (probed with a create+remove round trip). The indexd /readyz
// endpoint is a thin wrapper around it.
func (ix *GraphIndex) Ready() error {
	if ix.closing.Load() {
		return ErrIndexClosed
	}
	if ix.dataDir == "" {
		return nil
	}
	probe, err := os.CreateTemp(ix.dataDir, ".readyz-*")
	if err != nil {
		return fmt.Errorf("dvicl: index dir not writable: %w", err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

// IndexStats is a point-in-time summary of a GraphIndex, serialized by
// the indexd /stats endpoint and the bulkload report.
type IndexStats struct {
	// Graphs and Classes count stored graphs and isomorphism classes;
	// Duplicates = Graphs − Classes is the count of Adds collapsed onto
	// an existing class (the dedup win).
	Graphs     int `json:"graphs"`
	Classes    int `json:"classes"`
	Duplicates int `json:"duplicates"`

	// Shard layout: ShardGraphs[i] is the number of graphs on shard i —
	// the per-shard balance of the certificate hash routing.
	Shards      int   `json:"shards"`
	ShardGraphs []int `json:"shard_graphs,omitempty"`

	// Certificate-cache effectiveness. Hits are Adds/Lookups that skipped
	// the DviCL build entirely.
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`

	// Persistence state. The recovery fields describe what OpenGraphIndex
	// found on disk: ReplayedRecords is the WAL records it replayed and
	// RecoveredBytes the torn WAL tail it dropped, summed across shards.
	Persistent      bool  `json:"persistent"`
	ReplayedRecords int   `json:"replayed_records"`
	RecoveredBytes  int64 `json:"recovered_bytes"`

	// TreeStore, present when the index serves symmetry queries from an
	// AutoTree store, aggregates the decoded-tree caches across shards
	// (Entries/Bytes summed, MemBudget is the index-wide total).
	TreeStore *TreeStoreStats `json:"tree_store,omitempty"`
}

// Stats returns current index statistics. Shard counters are read one
// shard at a time, so the totals are not a single consistent cut under
// concurrent writes — fine for monitoring.
func (ix *GraphIndex) Stats() IndexStats {
	s := IndexStats{
		Persistent:      ix.dataDir != "",
		Shards:          len(ix.shards),
		ReplayedRecords: ix.replayedAtOpen,
		RecoveredBytes:  ix.recoveredBytes,
	}
	s.ShardGraphs = make([]int, len(ix.shards))
	for i, sh := range ix.shards {
		sh.mu.RLock()
		s.Graphs += len(sh.certs)
		s.Classes += len(sh.classes)
		s.ShardGraphs[i] = len(sh.certs)
		sh.mu.RUnlock()
	}
	s.Duplicates = s.Graphs - s.Classes
	if ix.tsPersist != nil {
		agg := &TreeStoreStats{}
		for _, sh := range ix.shards {
			ts := sh.ts.Stats()
			agg.Entries += ts.Entries
			agg.Bytes += ts.Bytes
			agg.MemBudget += ts.MemBudget
			agg.Persistent = agg.Persistent || ts.Persistent
		}
		s.TreeStore = agg
	}
	if ix.cache != nil {
		s.CacheEntries = ix.cache.len()
		s.CacheHits = ix.cache.hits.Load()
		s.CacheMisses = ix.cache.misses.Load()
	}
	return s
}

// Certificate computes (or recalls from the LRU cache) the canonical
// certificate of g under the index's DviCL options. Two graphs are
// isomorphic iff their certificates are equal; AddCert accepts the
// result. Pure with respect to the index — no locks taken.
func (ix *GraphIndex) Certificate(g *Graph) string {
	cert, err := ix.certOfCtx(context.Background(), g)
	if err != nil {
		// Unreachable with a background context and no Budget: the only
		// build errors are cancellation and budget exhaustion.
		panic("dvicl: Certificate: " + err.Error())
	}
	return cert
}

// CertificateCtx is Certificate with a context bounding the build.
func (ix *GraphIndex) CertificateCtx(ctx context.Context, g *Graph) (string, error) {
	return ix.certOfCtx(ctx, g)
}

// BuildCert builds g's canonical certificate under the index's DviCL
// options, drawing scratch memory from ws and counting into rec, without
// touching the certificate cache. It has the shape of a bulk-ingest
// pipeline's Canon step, whose results feed AddCert.
func (ix *GraphIndex) BuildCert(ctx context.Context, g *Graph, ws *Workspace, rec *MetricsRecorder) (string, error) {
	o := ix.opt
	o.Obs = rec
	o.Workspace = ws
	cert, err := CanonicalCertCtx(ctx, g, nil, o)
	return string(cert), err
}

// certOfCtx computes (or recalls) the canonical certificate of g. It
// runs outside the shard locks by design — see the Concurrency section
// of the GraphIndex doc — and consults the striped LRU cache keyed by
// the exact labeled graph (graph.Hash), so repeated presentations of the
// same graph skip DviCL entirely. A canceled or budget-exhausted build
// returns the typed engine error and caches nothing.
func (ix *GraphIndex) certOfCtx(ctx context.Context, g *Graph) (string, error) {
	if ix.cache == nil {
		cert, err := CanonicalCertCtx(ctx, g, nil, ix.opt)
		return string(cert), err
	}
	rec := obs.RecorderFor(ctx, ix.opt.Obs)
	key := g.Hash()
	if cert, ok := ix.cache.get(key); ok {
		rec.Inc(obs.CertCacheHits)
		obs.SpanFrom(ctx).SetAttr("cache_hit", 1)
		return cert, nil
	}
	rec.Inc(obs.CertCacheMisses)
	raw, err := CanonicalCertCtx(ctx, g, nil, ix.opt)
	if err != nil {
		return "", err
	}
	cert := string(raw)
	ix.cache.put(key, cert)
	return cert, nil
}
