// Package treestore persists and serves AutoTrees keyed by canonical
// certificate — the storage layer that turns the paper's "the AutoTree
// is an index" claim into a serving subsystem: once a graph's tree is
// built, orbit / automorphism-group / SSM queries are answered from the
// stored tree without re-running canonical labeling.
//
// The store is content-addressed: the key is the certificate itself
// (hashed to a filename), and the certificate is decodable back into
// the canonical graph (canon.DecodeCertificate), so a record holds only
// the serialized tree — a cold or corrupt entry is rebuilt from the
// certificate alone, deterministically, with no access to the original
// graph. That gives the store cache semantics end to end: every failure
// mode degrades to a recompute, never to a query error.
//
// Layout of a store directory:
//
//	<dir>/ab/<sha256-of-cert-hex>.tree
//
// Each file holds exactly the bytes core.Tree.Save returns, written via
// temp-file + fsync + atomic rename (store.WriteFileAtomic). The record
// frames itself and internal/core alone knows its layout: magic "DVTS",
// version 2, the SHA-256 of the canonical graph the tree was built for,
// a varint body, and a trailing CRC32-IEEE. core.Load reports damage
// with the typed error set of internal/store (store.ErrBadMagic,
// *store.VersionError, store.ErrTruncated, store.ErrChecksum), and a
// record filed under another class's key fails the graph-hash check
// with store.ErrChecksum; the fallback rebuild swallows all of them into
// the treestore_corrupt counter. Records written by older builds carry
// version 1 and are rebuilt once.
//
// Decoded trees are held in a byte-budgeted LRU (cost = the tree's
// estimated heap, core.Tree.HeapBytes), and
// concurrent misses on one certificate are collapsed by a single-flight
// table so a thundering herd performs one rebuild. Rebuilds honor the
// configured engine.Budget and record into an obs.Trace when the
// context carries one.
package treestore

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dvicl/internal/canon"
	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/store"
)

// ErrClosed is returned by operations on a Store after Close.
var ErrClosed = errors.New("treestore: closed")

// DefaultMemBudget is the decoded-tree LRU budget when Options.MemBudget
// is zero.
const DefaultMemBudget = 256 << 20

// Options configures a Store.
type Options struct {
	// MemBudget bounds the in-memory LRU of decoded trees, in bytes of
	// their estimated heap. 0 means DefaultMemBudget; negative disables
	// the memory cache entirely (every Get goes to disk or rebuilds).
	MemBudget int64
	// Build configures rebuild-on-miss DviCL builds. It must match the
	// options used to produce the certificates being queried (the
	// GraphIndex wires its own DviCL options through), and its Budget
	// bounds each rebuild. Build.Obs defaults to Obs when nil.
	Build core.Options
	// Obs receives the treestore_* counters and treestore_load/persist
	// phases (nil is a valid no-op recorder). When a Get context carries
	// an obs.Trace, that trace's forwarding recorder is used instead, so
	// per-request deltas are attributed without losing global totals.
	Obs *obs.Recorder
}

// Store is a content-addressed AutoTree store: persistent when opened
// with a directory, memory-only when opened with an empty one. Safe for
// concurrent use.
type Store struct {
	dir string // "" = memory-only
	opt Options

	mu      sync.Mutex
	entries map[[32]byte]*list.Element
	order   *list.List // front = most recently used
	bytes   int64
	flight  map[[32]byte]*flightCall
	closed  bool
}

type lruEntry struct {
	key  [32]byte
	tree *core.Tree
	size int64
}

// flightCall collapses concurrent misses on one certificate: the first
// caller loads or rebuilds, everyone else waits on done. If the leader's
// own context is canceled, a waiter whose context is still live becomes
// the next leader.
type flightCall struct {
	done chan struct{}
	tree *core.Tree
	err  error
}

// Open opens (creating if needed) a tree store rooted at dir. An empty
// dir yields a memory-only store: same API, no persistence — every
// eviction or restart costs a rebuild.
func Open(dir string, opt Options) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if opt.MemBudget == 0 {
		opt.MemBudget = DefaultMemBudget
	}
	if opt.Build.Obs == nil {
		opt.Build.Obs = opt.Obs
	}
	return &Store{
		dir:     dir,
		opt:     opt,
		entries: make(map[[32]byte]*list.Element),
		order:   list.New(),
		flight:  make(map[[32]byte]*flightCall),
	}, nil
}

// Get returns the AutoTree of the canonical graph the certificate
// describes, from the first level that has it: the decoded-tree LRU,
// the on-disk record, or a fresh DviCL rebuild (which is then persisted
// and cached). Corrupt records are counted, deleted and rebuilt — a Get
// fails only on cancellation, budget exhaustion, or an undecodable
// certificate. The returned tree is shared and must be treated as
// read-only; its automorphism-group order is precomputed, so Orbits,
// AutOrder, Quotient and fresh ssm.Index queries on it are safe
// concurrently.
func (s *Store) Get(ctx context.Context, cert []byte) (*core.Tree, error) {
	rec := obs.RecorderFor(ctx, s.opt.Obs)
	key := sha256.Sum256(cert)

	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if el, ok := s.entries[key]; ok {
			s.order.MoveToFront(el)
			s.mu.Unlock()
			rec.Inc(obs.TreeStoreMemHits)
			return el.Value.(*lruEntry).tree, nil
		}
		fc, ok := s.flight[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		select {
		case <-fc.done:
		case <-ctx.Done():
			return nil, engine.ErrCanceled
		}
		// The leader's cancellation belongs to the leader's caller: a
		// waiter whose own context is still live takes over the flight.
		if !errors.Is(fc.err, engine.ErrCanceled) || ctx.Err() != nil {
			if fc.err == nil {
				rec.Inc(obs.TreeStoreMemHits)
			}
			return fc.tree, fc.err
		}
		s.mu.Lock()
	}
	fc := &flightCall{done: make(chan struct{})}
	s.flight[key] = fc
	s.mu.Unlock()

	tree, err := s.loadOrRebuild(ctx, rec, key, cert)
	fc.tree, fc.err = tree, err

	s.mu.Lock()
	delete(s.flight, key)
	if err == nil && !s.closed && s.opt.MemBudget > 0 {
		s.insertLocked(key, tree, rec)
	}
	s.mu.Unlock()
	close(fc.done)
	return tree, err
}

// loadOrRebuild is the miss path, run by exactly one flight leader per
// certificate: disk first, then a budgeted DviCL rebuild from the
// decoded certificate.
func (s *Store) loadOrRebuild(ctx context.Context, rec *obs.Recorder, key [32]byte, cert []byte) (*core.Tree, error) {
	g, _, err := canon.DecodeCertificate(cert)
	if err != nil {
		// The certificate itself is bad — there is nothing to rebuild
		// from. This never happens for certs produced by this module.
		return nil, err
	}

	if s.dir != "" {
		if tree, ok := s.loadDisk(rec, key, g); ok {
			return tree, nil
		}
	}

	rec.Inc(obs.TreeRebuilds)
	tree, err := core.BuildCtx(ctx, g, nil, s.buildOpts(rec))
	if err != nil {
		return nil, err
	}
	warm(tree)
	if s.dir != "" {
		span := obs.StartUnder(rec, nil, obs.PhaseTreePersist)
		perr := s.writeRecord(key, tree.Save())
		span.End()
		if perr == nil {
			rec.Inc(obs.TreeStorePuts)
		}
		// A failed persist is not a query failure: the tree is good, the
		// next cold Get just rebuilds again.
	}
	return tree, nil
}

// loadDisk tries the persisted record. ok is false on any failure:
// missing file is a plain miss; a corrupt or unreadable record is
// counted, removed, and degraded to a miss.
func (s *Store) loadDisk(rec *obs.Recorder, key [32]byte, g *graph.Graph) (*core.Tree, bool) {
	path := s.pathOf(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			rec.Inc(obs.TreeStoreCorrupt)
			_ = os.Remove(path)
		}
		return nil, false
	}
	span := obs.StartUnder(rec, nil, obs.PhaseTreeLoad)
	tree, derr := core.Load(data, g)
	span.End()
	if derr != nil {
		rec.Inc(obs.TreeStoreCorrupt)
		_ = os.Remove(path)
		return nil, false
	}
	warm(tree)
	rec.Inc(obs.TreeStoreDiskHits)
	return tree, true
}

// buildOpts is the rebuild configuration with the per-operation recorder
// substituted in (BuildCtx itself swaps in a trace recorder when the
// context carries one).
func (s *Store) buildOpts(rec *obs.Recorder) core.Options {
	opt := s.opt.Build
	opt.Obs = rec
	return opt
}

// warm precomputes the tree's lazily memoized state (the per-node
// automorphism-group orders) before the tree is shared, so concurrent
// readers never race on the memo.
func warm(t *core.Tree) {
	t.AutOrder()
}

// insertLocked caches a decoded tree and evicts from the cold end until
// the budget holds (always keeping the newest entry, so one oversized
// tree does not render the cache useless by thrashing).
func (s *Store) insertLocked(key [32]byte, tree *core.Tree, rec *obs.Recorder) {
	if _, ok := s.entries[key]; ok {
		return // a racing leader already cached it
	}
	size := tree.HeapBytes()
	s.entries[key] = s.order.PushFront(&lruEntry{key: key, tree: tree, size: size})
	s.bytes += size
	for s.bytes > s.opt.MemBudget && s.order.Len() > 1 {
		el := s.order.Back()
		ent := el.Value.(*lruEntry)
		s.order.Remove(el)
		delete(s.entries, ent.key)
		s.bytes -= ent.size
		rec.Inc(obs.TreeStoreEvictions)
	}
}

// Stats is a point-in-time summary of a Store.
type Stats struct {
	// Entries and Bytes describe the decoded-tree LRU; MemBudget is its
	// configured bound.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MemBudget int64 `json:"mem_budget"`
	// Persistent reports whether the store is backed by a directory.
	Persistent bool `json:"persistent"`
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:    len(s.entries),
		Bytes:      s.bytes,
		MemBudget:  s.opt.MemBudget,
		Persistent: s.dir != "",
	}
}

// Close empties the cache and fails subsequent operations with
// ErrClosed. On-disk records are left in place (they are the point).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.entries = make(map[[32]byte]*list.Element)
	s.order = list.New()
	s.bytes = 0
	return nil
}

// pathOf maps a certificate hash to its record path, fanned out over
// 256 subdirectories so huge stores do not produce one enormous
// directory.
func (s *Store) pathOf(key [32]byte) string {
	h := hex.EncodeToString(key[:])
	return filepath.Join(s.dir, h[:2], h+".tree")
}

// writeRecord durably writes one record (a crash never leaves a torn
// record in place — at worst a stray .tmp file, which loads ignore).
func (s *Store) writeRecord(key [32]byte, data []byte) error {
	path := s.pathOf(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return store.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
