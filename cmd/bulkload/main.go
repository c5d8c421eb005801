// Command bulkload streams a multi-graph file through the parallel
// canonicalization pipeline into a (sharded, durable) certificate index —
// the batch half of the paper's database-indexing application: take
// millions of graphs, collapse them into isomorphism classes, and leave
// behind an index that indexd can serve.
//
// Usage:
//
//	bulkload [-in graphs.g6] [-format graph6|edgelist|auto] [-data dir]
//	         [-workers n] [-shards n] [-sync] [-cache n] [-report out.json]
//	         [-metrics-json out.json] [-progress n] [-slow-build d]
//
// The input (default stdin) is read record by record — one graph6 string
// per line, or blank-line-separated edge lists — so arbitrarily large
// files stream through without being buffered. Records are canonicalized
// by -workers parallel DviCL builds and applied to the index in input
// order, which makes the resulting certificate sequence (and therefore
// the id assignment) identical for every worker count.
//
// With -data the index is durable and sharded on disk exactly as indexd
// opens it: each acknowledged record is WAL-logged before it is counted,
// so a mid-ingest kill loses nothing that was reported ingested. Without
// -data the run is a pure dedup report.
//
// The ingest report — graphs read, iso-classes found, duplicates
// collapsed, per-shard balance, throughput — is written as JSON to
// -report (default stdout).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dvicl"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/pipeline"
)

// report is the bulkload output: the pipeline report plus what the index
// did with the certificates.
type report struct {
	pipeline.Report
	GraphsAdded int   `json:"graphs_added"`
	IsoClasses  int   `json:"iso_classes"`
	Duplicates  int   `json:"duplicates"`
	Shards      int   `json:"shards"`
	ShardGraphs []int `json:"shard_graphs,omitempty"`
	Persistent  bool  `json:"persistent"`
}

func main() {
	in := flag.String("in", "", "input file (empty = stdin)")
	format := flag.String("format", "auto", "input format: graph6, edgelist, or auto (by extension, default graph6)")
	data := flag.String("data", "", "index directory (empty = in-memory dedup report only)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel canonicalization workers")
	shards := flag.Int("shards", 16, "index shards (ignored when -data holds an existing index)")
	sync := flag.Bool("sync", false, "fsync the WAL on every add (durable to power loss)")
	cache := flag.Int("cache", 0, "certificate LRU cache entries (0 = default, negative = off)")
	reportPath := flag.String("report", "", "write the ingest report JSON here (empty = stdout)")
	metricsJSON := flag.String("metrics-json", "", "write the observability snapshot to this file")
	progress := flag.Int64("progress", 0, "log progress to stderr every n records (0 = off)")
	slowBuild := flag.Duration("slow-build", 0, "log a structured line for any single canonicalization at least this slow (0 = off)")
	flag.Parse()
	slogger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	src, closeIn, err := openSource(*in, *format)
	if err != nil {
		fatal(err)
	}
	defer closeIn()

	rec := dvicl.NewMetricsRecorder()
	ix, err := dvicl.OpenGraphIndex(*data, dvicl.IndexOptions{
		DviCL:      dvicl.Options{Obs: rec},
		CacheSize:  *cache,
		SyncWrites: *sync,
		Shards:     *shards,
	})
	if err != nil {
		fatal(err)
	}
	if *data != "" {
		st := ix.Stats()
		log.Printf("bulkload: opened %s: %d graphs, %d classes, %d shards",
			*data, st.Graphs, st.Classes, st.Shards)
	}

	// SIGINT/SIGTERM cancel the run: in-flight builds abort at their next
	// cancellation checkpoint, the partial report is still written, and
	// the index is closed cleanly — everything acknowledged is on disk.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var applied int64
	rep, runErr := pipeline.Run(pipeline.Config{
		Ctx:     ctx,
		Workers: *workers,
		Decode:  decoder(*format, *in),
		Canon: func(ctx context.Context, g *graph.Graph, ws *dvicl.Workspace, wrec *obs.Recorder) (string, error) {
			start := time.Now()
			cert, err := ix.BuildCert(ctx, g, ws, wrec)
			if d := time.Since(start); *slowBuild > 0 && d >= *slowBuild {
				slogger.Warn("slow build",
					slog.Int("n", g.N()), slog.Int("m", g.M()),
					slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)))
			}
			return cert, err
		},
		Apply: func(seq int64, cert string) error {
			if _, _, err := ix.AddCert(cert); err != nil {
				return err
			}
			applied++
			if *progress > 0 && applied%*progress == 0 {
				log.Printf("bulkload: %d graphs ingested", applied)
			}
			return nil
		},
		Obs: rec,
	}, src)
	if runErr != nil {
		// The report still describes everything acknowledged before the
		// failure; print it, then fail.
		log.Printf("bulkload: %v", runErr)
	}

	if err := ix.Close(); err != nil {
		fatal(err)
	}
	st := ix.Stats()
	full := report{
		Report:      *rep,
		GraphsAdded: st.Graphs,
		IsoClasses:  st.Classes,
		Duplicates:  st.Duplicates,
		Shards:      st.Shards,
		ShardGraphs: st.ShardGraphs,
		Persistent:  st.Persistent,
	}
	if err := writeReport(*reportPath, &full); err != nil {
		fatal(err)
	}
	if *metricsJSON != "" {
		if err := rec.Snapshot().WriteFile(*metricsJSON); err != nil {
			log.Printf("bulkload: metrics: %v", err)
		}
	}
	log.Printf("bulkload: %d records → %d graphs, %d classes, %d duplicates (%.0f graphs/sec, %d workers, %d shards)",
		full.Records, full.GraphsAdded, full.IsoClasses, full.Duplicates,
		full.GraphsPerSec, full.Workers, full.Shards)
	if runErr != nil {
		os.Exit(1)
	}
}

// resolveFormat maps -format auto onto the file extension.
func resolveFormat(format, path string) string {
	if format != "auto" {
		return format
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".txt", ".el", ".edges", ".edgelist":
		return "edgelist"
	default:
		return "graph6"
	}
}

// openSource builds the pipeline source for the input file and format.
func openSource(path, format string) (pipeline.Source, func(), error) {
	var r io.Reader = os.Stdin
	closeFn := func() {}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		r = f
		closeFn = func() { f.Close() }
	}
	switch resolveFormat(format, path) {
	case "graph6":
		return pipeline.ScannerSource(graph.NewGraph6Scanner(r)), closeFn, nil
	case "edgelist":
		return pipeline.EdgeListSource(graph.NewEdgeListScanner(r)), closeFn, nil
	default:
		closeFn()
		return nil, nil, fmt.Errorf("unknown format %q (want graph6, edgelist, or auto)", format)
	}
}

// decoder returns the per-record decode function for the resolved format.
func decoder(format, path string) func(string) (*graph.Graph, error) {
	if resolveFormat(format, path) == "edgelist" {
		return func(raw string) (*graph.Graph, error) {
			return graph.ReadEdgeList(strings.NewReader(raw))
		}
	}
	return graph.FromGraph6
}

func writeReport(path string, rep *report) error {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bulkload:", err)
	os.Exit(1)
}
