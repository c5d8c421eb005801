package main

import (
	"log/slog"
	"net/http"
	"sync"
	"time"

	"dvicl"
)

// buildRecord is one completed graph-processing request as the flight
// recorder keeps it: identity, outcome, graph size, and the full trace
// snapshot (span tree + per-request counter deltas + phase timings).
type buildRecord struct {
	RequestID string    `json:"request_id"`
	Endpoint  string    `json:"endpoint"`
	Status    int       `json:"status"`
	Outcome   string    `json:"outcome"` // ok | canceled | budget_exceeded | error
	Error     string    `json:"error,omitempty"`
	GraphN    int       `json:"graph_n,omitempty"`
	GraphM    int       `json:"graph_m,omitempty"`
	Start     time.Time `json:"start"`
	DurMs     float64   `json:"dur_ms"`
	Slow      bool      `json:"slow,omitempty"`

	Trace dvicl.TraceSnapshot `json:"trace"`
}

// buildRing is a fixed-size ring of buildRecords, newest overwriting
// oldest.
type buildRing struct {
	buf  []buildRecord
	next int
	n    int
}

func newBuildRing(size int) *buildRing {
	return &buildRing{buf: make([]buildRecord, size)}
}

func (r *buildRing) add(rec buildRecord) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns the records newest first.
func (r *buildRing) list() []buildRecord {
	out := make([]buildRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// flightRecorder keeps the last N completed builds plus every build
// slower than the slow threshold in separate rings, so a burst of fast
// requests cannot evict the interesting outliers. Slow builds are also
// logged as one structured line — the greppable counterpart of
// /debug/builds.
type flightRecorder struct {
	slowThresh time.Duration
	logger     *slog.Logger

	mu     sync.Mutex
	recent *buildRing
	slow   *buildRing
}

func newFlightRecorder(size int, slowThresh time.Duration, logger *slog.Logger) *flightRecorder {
	if size < 1 {
		size = 1
	}
	return &flightRecorder{
		slowThresh: slowThresh,
		logger:     logger,
		recent:     newBuildRing(size),
		slow:       newBuildRing(size),
	}
}

// record files one completed request and emits the slow-build log line
// when it crossed the threshold.
func (f *flightRecorder) record(rec buildRecord) {
	if f == nil {
		return
	}
	rec.Slow = f.slowThresh > 0 && rec.DurMs >= f.slowThresh.Seconds()*1000
	f.mu.Lock()
	f.recent.add(rec)
	if rec.Slow {
		f.slow.add(rec)
	}
	f.mu.Unlock()
	if rec.Slow && f.logger != nil {
		f.logger.Warn("slow build",
			slog.String("request_id", rec.RequestID),
			slog.String("endpoint", rec.Endpoint),
			slog.String("outcome", rec.Outcome),
			slog.Int("status", rec.Status),
			slog.Int("graph_n", rec.GraphN),
			slog.Int("graph_m", rec.GraphM),
			slog.Float64("dur_ms", rec.DurMs),
			slog.Int64("search_nodes", rec.Trace.Counters["search_nodes"]),
			slog.Int64("leaf_searches", rec.Trace.Counters["leaf_searches"]),
			slog.Int64("truncations", rec.Trace.Counters["truncations"]),
		)
	}
}

// buildsResp is the /debug/builds body.
type buildsResp struct {
	SlowThresholdMs float64       `json:"slow_threshold_ms"`
	Recent          []buildRecord `json:"recent"`
	Slow            []buildRecord `json:"slow"`
}

// handleBuilds serves the flight recorder contents, newest first.
func (f *flightRecorder) handleBuilds(w http.ResponseWriter, r *http.Request) error {
	f.mu.Lock()
	resp := buildsResp{
		SlowThresholdMs: f.slowThresh.Seconds() * 1000,
		Recent:          f.recent.list(),
		Slow:            f.slow.list(),
	}
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
	return nil
}
