// Package pipeline is the streaming bulk-ingest subsystem: it turns a
// stream of encoded graph records into canonical certificates at
// full-core speed and applies them, in input order, to a sink (normally
// the sharded dvicl.GraphIndex).
//
// The shape is a classic bounded three-stage pipeline:
//
//		reader ──feed──▶ workers (decode + canonicalize) ──results──▶ applier
//
//	  - The reader pulls records from a Source one at a time — the source
//	    streams (graph.Graph6Scanner / graph.EdgeListScanner), so a
//	    multi-gigabyte file is never buffered.
//	  - A bounded pool of workers decodes and canonicalizes records in
//	    parallel. Canonicalization (the DviCL build) dominates, which is
//	    why this stage is the wide one. Each worker records observability
//	    into a private recorder, merged into the shared one on completion —
//	    zero cross-core contention on the hot path.
//	  - The applier runs on the calling goroutine and applies results in
//	    sequence order, using a reorder buffer keyed by the sequence number
//	    stamped on each record. Output is therefore deterministic: the same
//	    input stream produces the same Apply call sequence regardless of
//	    worker count or scheduling.
//
// Both channels are bounded, so a slow sink backpressures the workers and
// a slow disk backpressures the reader; memory is O(workers + queue), not
// O(input).
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// Source yields the next raw record of a stream: its text, its 1-based
// line (or record start line) in the input for error reporting, and
// whether a record was produced. A false ok with nil err is clean EOF; a
// non-nil err aborts the run.
type Source func() (raw string, line int, ok bool, err error)

// Config wires one pipeline run.
type Config struct {
	// Ctx bounds the whole run: when it is canceled (client disconnect,
	// SIGINT, deadline) the reader stops feeding, in-flight builds abort
	// at their next cancellation checkpoint, and Run returns the partial
	// report with an error wrapping the cause. nil means
	// context.Background() (never canceled).
	Ctx context.Context
	// Workers is the canonicalization pool width. 0 means runtime.NumCPU().
	Workers int
	// Queue bounds the feed and result channels. 0 means 4×Workers.
	Queue int
	// Decode materializes a raw record (e.g. graph.FromGraph6). Required.
	Decode func(raw string) (*graph.Graph, error)
	// Canon builds the canonical certificate of a decoded graph under
	// ctx, reporting effort into rec (a per-worker recorder; may be nil
	// when Obs is nil). ws is the worker's checked-out engine workspace:
	// the pipeline holds one per worker for the whole run, so callers
	// that thread it into the build (core.Options.Workspace) pay the
	// workspace-pool round-trip once per worker instead of once per
	// record. A non-nil error is *fatal* — unlike a Decode error, it
	// aborts the run, because the only errors a build can produce are
	// cancellation and budget exhaustion, which apply to the run as a
	// whole. Required.
	Canon func(ctx context.Context, g *graph.Graph, ws *engine.Workspace, rec *obs.Recorder) (string, error)
	// Apply consumes one certificate. Called from the Run goroutine only,
	// in exactly input order (seq 0, 1, 2, … with decode failures
	// skipped). A non-nil error aborts the run. Required.
	Apply func(seq int64, cert string) error
	// Obs receives the pipeline counters (bulk_records,
	// bulk_decode_errors) and the merged per-worker recorders. May be nil.
	Obs *obs.Recorder
}

// RecordError describes one rejected input record.
type RecordError struct {
	Seq  int64  `json:"seq"`
	Line int    `json:"line"`
	Err  string `json:"error"`
}

// maxReportErrors caps how many RecordErrors a Report retains; the total
// count is always exact.
const maxReportErrors = 20

// Report summarizes one pipeline run.
type Report struct {
	// Records is how many records the source yielded; Applied of them
	// were canonicalized and handed to Apply, DecodeErrors were rejected
	// by the decoder (first maxReportErrors detailed in Errors).
	Records      int64         `json:"records"`
	Applied      int64         `json:"applied"`
	DecodeErrors int64         `json:"decode_errors"`
	Errors       []RecordError `json:"errors,omitempty"`

	// Workers is the resolved pool width; ElapsedSeconds and
	// GraphsPerSec measure the whole run including stream read time.
	Workers        int     `json:"workers"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	GraphsPerSec   float64 `json:"graphs_per_sec"`
}

// result is one worker's output, tagged with the record's sequence
// number so the applier can restore input order. err is a per-record
// decode failure (counted, not fatal); fatal is a canonicalization
// failure (cancellation / budget), which aborts the run.
type result struct {
	seq   int64
	line  int
	cert  string
	err   error
	fatal error
}

// record is one unit of reader→worker work.
type record struct {
	seq  int64
	line int
	raw  string
}

// Run streams src through the pipeline. It returns when the source is
// exhausted (report, nil), or on the first source/canonicalize/apply
// error (partial report, err) — cancellation of cfg.Ctx surfaces as an
// error wrapping engine.ErrCanceled, from whichever stage notices it
// first. Decode errors do not abort the run; they are counted and
// sampled in the report. Whatever the outcome, Run returns only after
// the reader and every worker goroutine have exited, so src is never
// called after Run returns.
func Run(cfg Config, src Source) (*Report, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	queue := cfg.Queue
	if queue <= 0 {
		queue = 4 * workers
	}
	// One "bulk_ingest" span summarizes the whole run on the request's
	// trace; the workers run detached — hundreds of concurrent builds
	// tracing span-per-node into one tree would only hit the span cap and
	// serialize on the trace mutex, so per-record effort flows through the
	// private worker recorders (Merge forwards the deltas to the trace's
	// recorder when cfg.Obs is one) instead of spans.
	_, rec, span := obs.Start(ctx, cfg.Obs, obs.PhaseBulkIngest)
	defer span.End()
	cfg.Obs = rec
	ctx = obs.DetachTrace(ctx)
	start := time.Now()

	feed := make(chan record, queue)
	results := make(chan result, queue)
	stop := make(chan struct{}) // closed by the applier on terminal error

	// Reader: source → feed.
	var readErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(feed)
		for seq := int64(0); ; seq++ {
			raw, line, ok, err := src()
			if err != nil {
				readErr = err
				return
			}
			if !ok {
				return
			}
			select {
			case feed <- record{seq: seq, line: line, raw: raw}:
			case <-stop:
				return
			case <-ctx.Done():
				// Record the cancellation: otherwise a cancel that lands
				// between builds would masquerade as clean EOF.
				readErr = fmt.Errorf("%w: %w", engine.ErrCanceled, context.Cause(ctx))
				return
			}
		}
	}()

	// Workers: feed → results, each with a private recorder.
	workerRecs := make([]*obs.Recorder, workers)
	done := make(chan int, workers) // worker index, sent on drain
	for w := 0; w < workers; w++ {
		var rec *obs.Recorder
		if cfg.Obs != nil {
			rec = obs.New()
		}
		workerRecs[w] = rec
		go func(w int, rec *obs.Recorder) {
			defer func() { done <- w }()
			// One workspace per worker for the whole run (sized lazily by
			// each build), not one pool round-trip per record.
			ws := engine.GetWorkspace(0)
			defer engine.PutWorkspace(ws)
			for r := range feed {
				g, err := cfg.Decode(r.raw)
				res := result{seq: r.seq, line: r.line}
				if err != nil {
					res.err = err
				} else if cert, cerr := cfg.Canon(ctx, g, ws, rec); cerr != nil {
					res.fatal = cerr
				} else {
					res.cert = cert
				}
				select {
				case results <- res:
				case <-stop:
					return
				}
			}
		}(w, rec)
	}
	go func() {
		for w := 0; w < workers; w++ {
			<-done
		}
		close(results)
	}()

	// Applier (this goroutine): results → sink, restored to seq order. A
	// fatal (canonicalize) result aborts on receipt — no point restoring
	// order for a run that is already dead.
	report := &Report{Workers: workers}
	var applyErr, canonErr error
	var canonSeq int64
	pending := make(map[int64]result)
	next := int64(0)
	for res := range results {
		if res.fatal != nil {
			canonErr, canonSeq = res.fatal, res.seq
			break
		}
		pending[res.seq] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			report.Records++
			cfg.Obs.Inc(obs.BulkRecords)
			if r.err != nil {
				report.DecodeErrors++
				cfg.Obs.Inc(obs.BulkDecodeErrors)
				if len(report.Errors) < maxReportErrors {
					report.Errors = append(report.Errors, RecordError{
						Seq: r.seq, Line: r.line, Err: r.err.Error(),
					})
				}
				continue
			}
			// Results built before a cancel must not be applied after it.
			if ctx.Err() != nil {
				applyErr = engine.ErrCanceled
				break
			}
			if err := cfg.Apply(r.seq, r.cert); err != nil {
				applyErr = err
				break
			}
			report.Applied++
		}
		if applyErr != nil {
			break
		}
	}
	if applyErr != nil || canonErr != nil {
		// Unblock the reader and any worker parked on a full channel,
		// then drain results so every worker observes feed closed.
		close(stop)
		for range results {
		}
	}
	<-readerDone
	for _, rec := range workerRecs {
		cfg.Obs.Merge(rec)
	}
	span.SetAttr("records", report.Records)
	span.SetAttr("applied", report.Applied)
	span.SetAttr("decode_errors", report.DecodeErrors)

	report.ElapsedSeconds = time.Since(start).Seconds()
	if report.ElapsedSeconds > 0 {
		report.GraphsPerSec = float64(report.Applied) / report.ElapsedSeconds
	}
	switch {
	case canonErr != nil:
		return report, fmt.Errorf("pipeline: canonicalize record %d: %w", canonSeq, canonErr)
	case applyErr != nil:
		return report, fmt.Errorf("pipeline: apply record %d: %w", next-1, applyErr)
	case readErr != nil:
		return report, fmt.Errorf("pipeline: read: %w", readErr)
	}
	return report, nil
}

// ScannerSource adapts a graph.Graph6Scanner to a Source.
func ScannerSource(sc *graph.Graph6Scanner) Source {
	return func() (string, int, bool, error) {
		if sc.Scan() {
			return sc.Text(), sc.Line(), true, nil
		}
		return "", 0, false, sc.Err()
	}
}

// EdgeListSource adapts a graph.EdgeListScanner to a Source.
func EdgeListSource(sc *graph.EdgeListScanner) Source {
	return func() (string, int, bool, error) {
		if sc.Scan() {
			return sc.Text(), sc.Line(), true, nil
		}
		return "", 0, false, sc.Err()
	}
}

// SliceSource yields the records of a slice in order, numbering lines
// from firstLine, for callers that hold their records in memory.
func SliceSource(recs []string, firstLine int) Source {
	i := 0
	return func() (string, int, bool, error) {
		if i >= len(recs) {
			return "", 0, false, nil
		}
		raw := recs[i]
		line := firstLine + i
		i++
		return raw, line, true, nil
	}
}
