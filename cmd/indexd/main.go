// Command indexd serves a persistent canonical-certificate graph index
// over HTTP — the paper's database-indexing application (introduction,
// (a)) as a long-lived daemon: two graphs are isomorphic iff their DviCL
// certificates match, so deduplication and isomorphism lookup are map
// operations against the index.
//
// Usage:
//
//	indexd [-addr :7171] [-data dir] [-shards n] [-sync] [-cache n]
//	       [-max-inflight n] [-max-verts n] [-max-body-bytes n]
//	       [-timeout d] [-build-timeout d] [-workers n] [-bulk-workers n]
//	       [-metrics-json out.json] [-debug-addr :6060] [-slow-build d]
//	       [-flight-recorder n] [-treestore] [-treestore-mem n]
//
// Endpoints (JSON; see docs/OPERATIONS.md for curl examples):
//
//	POST /add      {"n":4,"edges":[[0,1],...]} or {"graph6":"..."}
//	               → {"id":0,"duplicate":false}
//	POST /lookup   same body → {"ids":[0,3]}
//	POST /batch    {"ops":[{"op":"add","n":...,"edges":...},...]}
//	POST /bulk     streaming graph6 body, one record per line → ingest report
//	POST /flush    fsync every shard's WAL → index stats
//	GET  /stats    index + cache + counter statistics
//	GET  /metrics  Prometheus text exposition (counters, phase histograms, gauges)
//	GET  /orbits?id=N    orbit partition of the stored graph's class
//	GET  /autgroup?id=N  |Aut| (decimal string) + sparse generators
//	GET  /quotient?id=N  orbit-quotient graph + vertex→orbit map
//	POST /ssm      {"id":N,"pattern":[0,1],"limit":4} → image count (+ images)
//	GET  /debug/builds  flight recorder: recent + slow builds with span trees
//	GET  /healthz  liveness ("ok", 200)
//	GET  /readyz   readiness (index open and its directory writable)
//
// The symmetry queries (/orbits, /autgroup, /quotient, /ssm) answer at
// the isomorphism-class level, over the canonical graph of the id's
// class. With -treestore (the default) each class's AutoTree is kept in
// a content-addressed store beside the index — write-behind persisted on
// add, cached decoded in memory under -treestore-mem — so the warm path
// performs zero DviCL builds; cold, missing, or corrupt entries degrade
// to a single recompute, never an error.
//
// Graph-processing requests carry a request id (the client's X-Request-Id
// or a generated one), echoed in the response header and error bodies; a
// Trace of each build is kept in the flight recorder, and builds slower
// than -slow-build are logged as structured slow-build lines.
//
// With -data the index is durable: every Add is write-through logged to a
// WAL, the index's only file per shard; restart (even kill -9) reloads
// the same ids. Without -data the index is in-memory only.
//
// -max-inflight bounds concurrent graph-processing requests (excess
// requests get 503 + Retry-After backpressure), -timeout bounds each
// request end to end, and SIGINT/SIGTERM trigger a graceful shutdown that
// drains connections and syncs and closes the WALs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dvicl"
)

func main() {
	addr := flag.String("addr", ":7171", "HTTP listen address")
	data := flag.String("data", "", "index directory (empty = in-memory, no persistence)")
	shards := flag.Int("shards", 1, "index shards (fixed at creation; an existing -data directory keeps its on-disk count)")
	sync := flag.Bool("sync", false, "fsync the WAL on every add (durable to power loss)")
	cache := flag.Int("cache", 0, "certificate LRU cache entries (0 = default 4096, negative = off)")
	maxInflight := flag.Int("max-inflight", 2*runtime.GOMAXPROCS(0), "max concurrent graph-processing requests before 503 backpressure")
	maxVerts := flag.Int("max-verts", 1<<20, "reject graphs with more vertices than this")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "reject JSON request bodies larger than this with 413 (0 = default 32 MiB)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	buildTimeout := flag.Duration("build-timeout", 0, "hard wall-clock bound on a single certificate build (0 = bounded only by -timeout)")
	workers := flag.Int("workers", 0, "parallel subtree builders per certificate build (0 = sequential)")
	bulkWorkers := flag.Int("bulk-workers", 0, "parallel canonicalization workers for /bulk (0 = NumCPU)")
	metricsJSON := flag.String("metrics-json", "", "write the observability snapshot to this file on shutdown")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address")
	slowBuild := flag.Duration("slow-build", time.Second, "retain and log builds at least this slow in the flight recorder's slow ring (0 = disable)")
	flightSize := flag.Int("flight-recorder", 64, "completed builds kept per flight-recorder ring (/debug/builds)")
	treeStore := flag.Bool("treestore", true, "keep an AutoTree store beside the index so symmetry queries skip rebuilds (persistent under -data, in-memory otherwise)")
	treeStoreMem := flag.Int64("treestore-mem", 0, "decoded-tree cache budget in bytes, index-wide (0 = default 256 MiB)")
	flag.Parse()

	rec := dvicl.NewMetricsRecorder()
	opt := dvicl.IndexOptions{
		DviCL:      dvicl.Options{Workers: *workers, Obs: rec, Budget: dvicl.Budget{BuildTimeout: *buildTimeout}},
		CacheSize:  *cache,
		SyncWrites: *sync,
		Shards:     *shards,
	}
	if *treeStore {
		opt.TreeStore = &dvicl.TreeStoreOptions{MemBudget: *treeStoreMem}
	}

	ix, err := dvicl.OpenGraphIndex(*data, opt)
	if err != nil {
		log.Fatalf("indexd: open %s: %v", *data, err)
	}
	if *data == "" {
		log.Printf("indexd: in-memory index (no -data directory; adds will not survive restart)")
	} else {
		st := ix.Stats()
		log.Printf("indexd: loaded %d graphs (%d classes, %d shards) from %s: wal=%d torn-bytes=%d",
			st.Graphs, st.Classes, st.Shards, *data, st.ReplayedRecords, st.RecoveredBytes)
	}

	if *debugAddr != "" {
		dbg, err := dvicl.ServeDebug(*debugAddr, rec)
		if err != nil {
			log.Fatalf("indexd: debug server: %v", err)
		}
		defer dbg.Close()
		log.Printf("indexd: debug server on http://%s/debug/pprof/", dbg.Addr)
	}

	srv := newServer(ix, rec, serverConfig{
		MaxInflight:  *maxInflight,
		MaxVerts:     *maxVerts,
		MaxBodyBytes: *maxBodyBytes,
		BulkWorkers:  *bulkWorkers,
		SlowBuild:    *slowBuild,
		FlightSize:   *flightSize,
		Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("indexd: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{
		Handler: srv.handler(*timeout),
		// The TimeoutHandler bounds handler time; these bound slow clients.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout + 10*time.Second,
		WriteTimeout:      *timeout + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("indexd: serving on http://%s (max-inflight=%d timeout=%v)", ln.Addr(), *maxInflight, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Printf("indexd: shutdown signal received, draining...")
	case err := <-errCh:
		log.Fatalf("indexd: serve: %v", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("indexd: shutdown: %v", err)
	}
	if err := ix.Close(); err != nil {
		log.Printf("indexd: index close: %v", err)
	}
	if *metricsJSON != "" {
		if err := rec.Snapshot().WriteFile(*metricsJSON); err != nil {
			log.Printf("indexd: metrics: %v", err)
		} else {
			fmt.Printf("metrics written to %s\n", *metricsJSON)
		}
	}
	log.Printf("indexd: bye")
}
