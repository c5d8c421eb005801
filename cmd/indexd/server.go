package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dvicl"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
	"dvicl/internal/pipeline"
)

// Request/response bodies. A graph arrives either as an explicit edge
// list ({"n": 4, "edges": [[0,1],[1,2]]}) or as a graph6 string
// ({"graph6": "Cr"}); graph6 wins when both are present.
type graphReq struct {
	N      int      `json:"n"`
	Edges  [][2]int `json:"edges"`
	Graph6 string   `json:"graph6"`
}

type addResp struct {
	ID        int  `json:"id"`
	Duplicate bool `json:"duplicate"`
}

type lookupResp struct {
	IDs []int `json:"ids"`
}

type batchOp struct {
	Op string `json:"op"` // "add" or "lookup"
	graphReq
}

type batchReq struct {
	Ops []batchOp `json:"ops"`
}

type batchResult struct {
	ID        *int   `json:"id,omitempty"`
	Duplicate *bool  `json:"duplicate,omitempty"`
	IDs       []int  `json:"ids,omitempty"`
	Error     string `json:"error,omitempty"`
}

type batchResp struct {
	Results []batchResult `json:"results"`
}

type errResp struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// bulkResp is the /bulk ingest report: the pipeline totals for this
// request plus what the index did with the certificates.
type bulkResp struct {
	pipeline.Report
	NewClasses int64            `json:"new_classes"`
	Duplicates int64            `json:"duplicates"`
	Index      dvicl.IndexStats `json:"index"`
}

type statsResp struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Index         dvicl.IndexStats `json:"index"`
	Counters      map[string]int64 `json:"counters"`
}

// Request-size guardrails: batch fan-out and bulk chunking are bounded so
// one request cannot exhaust the process. The JSON body cap is a flag
// (-max-body-bytes); these stay constants.
const (
	defaultMaxBodyBytes = 32 << 20
	maxBatchOps         = 1024
	// bulkChunkRecords is how many graph6 records the /bulk endpoint
	// processes per admission token: large enough to amortize pool
	// startup, small enough that interactive traffic interleaves with a
	// long-running stream.
	bulkChunkRecords = 256
	// defaultFlightSize is each flight-recorder ring's capacity when
	// -flight-recorder is unset.
	defaultFlightSize = 64
	// maxRequestIDLen caps accepted X-Request-Id values; longer (or
	// non-printable) ids are replaced with a generated one.
	maxRequestIDLen = 64
	// maxSSMImages caps how many automorphic images one /ssm request may
	// enumerate (the count is always exact; only enumeration is bounded).
	maxSSMImages = 10000
)

// serverConfig bundles the daemon's request-handling knobs (the flag
// surface of main, minus the index itself).
type serverConfig struct {
	// MaxInflight is the admission-semaphore width for graph-processing
	// endpoints; MaxVerts/MaxBodyBytes reject oversized inputs;
	// BulkWorkers is the /bulk canonicalization pool (0 = NumCPU).
	MaxInflight  int
	MaxVerts     int
	MaxBodyBytes int64
	BulkWorkers  int
	// SlowBuild is the flight-recorder slow threshold (-slow-build):
	// completed builds at least this slow are retained in the slow ring
	// and logged. 0 disables the slow ring and the log line.
	SlowBuild time.Duration
	// FlightSize is each flight-recorder ring's capacity (-flight-recorder).
	FlightSize int
	// Logger receives the structured slow-build lines; nil disables them.
	Logger *slog.Logger
}

// server holds the daemon's state: the index, the recorder, the flight
// recorder, and the admission control for graph-processing endpoints.
type server struct {
	ix           *dvicl.GraphIndex
	rec          *dvicl.MetricsRecorder // alias of *obs.Recorder
	sem          chan struct{}          // admission tokens for expensive endpoints
	maxVerts     int
	maxBodyBytes int64
	bulkWorkers  int
	flight       *flightRecorder
	start        time.Time
}

func newServer(ix *dvicl.GraphIndex, rec *dvicl.MetricsRecorder, cfg serverConfig) *server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.BulkWorkers <= 0 {
		cfg.BulkWorkers = runtime.NumCPU()
	}
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = defaultFlightSize
	}
	return &server{
		ix:           ix,
		rec:          rec,
		sem:          make(chan struct{}, cfg.MaxInflight),
		maxVerts:     cfg.MaxVerts,
		maxBodyBytes: cfg.MaxBodyBytes,
		bulkWorkers:  cfg.BulkWorkers,
		flight:       newFlightRecorder(cfg.FlightSize, cfg.SlowBuild, cfg.Logger),
		start:        time.Now(),
	}
}

// handler assembles the full route table. timeout bounds each request end
// to end (http.TimeoutHandler replies 503 when exceeded) — except /bulk,
// which is a streaming ingest of unbounded duration and manages its own
// backpressure per chunk instead.
func (s *server) handler(timeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /add", s.limited(s.traced("add", s.handleAdd)))
	mux.HandleFunc("POST /lookup", s.limited(s.traced("lookup", s.handleLookup)))
	mux.HandleFunc("POST /batch", s.limited(s.traced("batch", s.handleBatch)))
	mux.HandleFunc("POST /flush", s.limited(s.handleFlush))
	// Symmetry queries share the admission semaphore with /add: the warm
	// path is cheap (cached AutoTree), but a cold or corrupt entry
	// degrades to a full DviCL rebuild.
	mux.HandleFunc("GET /orbits", s.limited(s.traced("orbits", s.handleOrbits)))
	mux.HandleFunc("GET /autgroup", s.limited(s.traced("autgroup", s.handleAutGroup)))
	mux.HandleFunc("GET /quotient", s.limited(s.traced("quotient", s.handleQuotient)))
	mux.HandleFunc("POST /ssm", s.limited(s.traced("ssm", s.handleSSM)))
	mux.HandleFunc("GET /stats", s.instrumented(s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrumented(s.handleMetrics))
	mux.HandleFunc("GET /debug/builds", s.instrumented(s.flight.handleBuilds))
	mux.HandleFunc("GET /healthz", s.instrumented(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrumented(s.handleReadyz))
	body := `{"error":"request timed out"}` + "\n"
	outer := http.NewServeMux()
	outer.HandleFunc("POST /bulk", s.instrumented(s.traced("bulk", s.handleBulk)))
	outer.Handle("/", http.TimeoutHandler(mux, timeout, body))
	return outer
}

// instrumented counts the request, times it, and tracks error statuses.
// Throttled 503s pass through the same statusWriter, so they are counted
// in http_errors as well as http_throttled — an invariant pinned by
// TestThrottleCountsBothCounters.
func (s *server) instrumented(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.rec.Inc(obs.HTTPRequests)
		defer obs.StartUnder(s.rec, nil, obs.PhaseHTTP).End()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if sw.status >= 400 {
			s.rec.Inc(obs.HTTPErrors)
		}
	}
}

// limited is instrumented plus admission control: when all tokens are
// taken the request is rejected immediately with 503 + Retry-After —
// backpressure, not an unbounded queue.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rec.Inc(obs.HTTPThrottled)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errResp{Error: "server at capacity"})
			return
		}
		h(w, r)
	})
}

// reqInfo is the per-request record the traced middleware and the
// handlers share: identity, the live trace, the graph dimensions (filled
// in once the body is decoded), and how the request ended.
type reqInfo struct {
	id string
	tr *dvicl.Trace

	mu      sync.Mutex
	n, m    int
	outcome string
	errMsg  string
}

// noteGraph records the request's graph size (the largest seen, so a
// batch reports its dominant graph).
func (ri *reqInfo) noteGraph(n, m int) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	if n > ri.n {
		ri.n, ri.m = n, m
	}
	ri.mu.Unlock()
}

// fail records the terminal outcome of a failed request.
func (ri *reqInfo) fail(outcome, msg string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.outcome, ri.errMsg = outcome, msg
	ri.mu.Unlock()
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's reqInfo, or nil outside traced
// endpoints.
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// requestID returns the client's X-Request-Id when it is well-formed
// (printable ASCII, bounded length), or a fresh random id.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id != "" && len(id) <= maxRequestIDLen {
		ok := true
		for i := 0; i < len(id); i++ {
			if id[i] <= ' ' || id[i] > '~' {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unknown"
	}
	return hex.EncodeToString(b[:])
}

// traced wraps a graph-processing handler with the request-scoped
// observability: a request id (accepted or generated, echoed in the
// X-Request-Id response header and error bodies), a Trace on the context
// that the build/lookup layers attach their span trees to, and — when the
// request completes — a buildRecord filed in the flight recorder, with a
// structured slow-build log line past the -slow-build threshold.
func (s *server) traced(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: requestID(r)}
		ri.tr = dvicl.NewTrace(ri.id, s.rec)
		w.Header().Set("X-Request-Id", ri.id)
		ctx := dvicl.WithTrace(r.Context(), ri.tr)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		ri.tr.Root().End()

		ri.mu.Lock()
		outcome, errMsg, n, m := ri.outcome, ri.errMsg, ri.n, ri.m
		ri.mu.Unlock()
		if outcome == "" {
			if sw.status >= 400 {
				outcome = "error"
			} else {
				outcome = "ok"
			}
		}
		s.flight.record(buildRecord{
			RequestID: ri.id,
			Endpoint:  endpoint,
			Status:    sw.status,
			Outcome:   outcome,
			Error:     errMsg,
			GraphN:    n,
			GraphM:    m,
			Start:     start,
			DurMs:     float64(time.Since(start)) / float64(time.Millisecond),
			Trace:     ri.tr.Snapshot(),
		})
	}
}

// statusWriter records the status code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// writeErr sends a JSON error carrying the request id and records the
// outcome on the request's reqInfo ("error" unless already set).
func (s *server) writeErr(w http.ResponseWriter, r *http.Request, status int, msg string) {
	resp := errResp{Error: msg}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		resp.RequestID = ri.id
		ri.mu.Lock()
		if ri.outcome == "" {
			ri.outcome = "error"
		}
		ri.errMsg = msg
		ri.mu.Unlock()
	}
	writeJSON(w, status, resp)
}

// buildError maps a certificate-build error onto an HTTP response,
// reporting whether there was one to handle. A canceled build (client
// disconnect, or the TimeoutHandler expiring the request context
// mid-canonicalization) and an exhausted build budget are 503s — the
// request was shed, not malformed; cancellations also bump
// index_canceled so load shedding is visible in /stats. The outcome is
// recorded on the request's reqInfo for the flight recorder.
func (s *server) buildError(w http.ResponseWriter, r *http.Request, err error) bool {
	ri := reqInfoFrom(r.Context())
	switch {
	case err == nil:
		return false
	case errors.Is(err, dvicl.ErrCanceled):
		s.rec.Inc(obs.IndexCanceled)
		ri.fail("canceled", err.Error())
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, r, http.StatusServiceUnavailable, "request canceled")
	case errors.Is(err, dvicl.ErrBudgetExceeded):
		ri.fail("budget_exceeded", err.Error())
		s.writeErr(w, r, http.StatusServiceUnavailable, "build budget exceeded")
	case errors.Is(err, dvicl.ErrIndexClosed):
		s.writeErr(w, r, http.StatusServiceUnavailable, err.Error())
	default:
		s.writeErr(w, r, http.StatusInternalServerError, err.Error())
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeGraph validates and materializes the graph of a request body.
func (s *server) decodeGraph(req *graphReq) (*dvicl.Graph, error) {
	if req.Graph6 != "" {
		g, err := dvicl.FromGraph6(req.Graph6)
		if err != nil {
			return nil, fmt.Errorf("graph6: %w", err)
		}
		if g.N() > s.maxVerts {
			return nil, fmt.Errorf("graph has %d vertices, limit %d", g.N(), s.maxVerts)
		}
		return g, nil
	}
	if req.N < 0 || req.N > s.maxVerts {
		return nil, fmt.Errorf("n=%d out of range [0,%d]", req.N, s.maxVerts)
	}
	for _, e := range req.Edges {
		if e[0] < 0 || e[0] >= req.N || e[1] < 0 || e[1] >= req.N {
			return nil, fmt.Errorf("edge [%d,%d] out of range [0,%d)", e[0], e[1], req.N)
		}
	}
	return dvicl.FromEdges(req.N, req.Edges), nil
}

// decodeBody JSON-decodes a request body under the -max-body-bytes cap.
// An oversized body is a 413 with a JSON error — MaxBytesReader cuts the
// read off at the limit, so a huge payload never reaches the decoder's
// buffers, let alone the heap.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errResp{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errResp{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req graphReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, err := s.decodeGraph(&req)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	reqInfoFrom(r.Context()).noteGraph(g.N(), g.M())
	id, dup, err := s.ix.AddCtx(r.Context(), g)
	if s.buildError(w, r, err) {
		return
	}
	writeJSON(w, http.StatusOK, addResp{ID: id, Duplicate: dup})
}

func (s *server) handleLookup(w http.ResponseWriter, r *http.Request) {
	var req graphReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, err := s.decodeGraph(&req)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	reqInfoFrom(r.Context()).noteGraph(g.N(), g.M())
	ids, err := s.ix.LookupCtx(r.Context(), g)
	if s.buildError(w, r, err) {
		return
	}
	if ids == nil {
		ids = []int{}
	}
	writeJSON(w, http.StatusOK, lookupResp{IDs: ids})
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) > maxBatchOps {
		s.writeErr(w, r, http.StatusBadRequest,
			fmt.Sprintf("batch of %d ops exceeds limit %d", len(req.Ops), maxBatchOps))
		return
	}
	resp := batchResp{Results: make([]batchResult, len(req.Ops))}
	for i := range req.Ops {
		op := &req.Ops[i]
		res := &resp.Results[i]
		g, err := s.decodeGraph(&op.graphReq)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		reqInfoFrom(r.Context()).noteGraph(g.N(), g.M())
		switch op.Op {
		case "add":
			id, dup, err := s.ix.AddCtx(r.Context(), g)
			if err != nil {
				// A canceled/over-budget request is dead as a whole, not
				// per-op: stop burning CPU on the remaining ops.
				if errors.Is(err, dvicl.ErrCanceled) || errors.Is(err, dvicl.ErrBudgetExceeded) {
					s.buildError(w, r, err)
					return
				}
				res.Error = err.Error()
				continue
			}
			res.ID, res.Duplicate = &id, &dup
		case "lookup":
			ids, err := s.ix.LookupCtx(r.Context(), g)
			if err != nil {
				if errors.Is(err, dvicl.ErrCanceled) || errors.Is(err, dvicl.ErrBudgetExceeded) {
					s.buildError(w, r, err)
					return
				}
				res.Error = err.Error()
				continue
			}
			if ids == nil {
				ids = []int{}
			}
			res.IDs = ids
		default:
			res.Error = fmt.Sprintf("unknown op %q (want add or lookup)", op.Op)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBulk streams a graph6 body — one record per line, arbitrarily
// many — through the parallel canonicalization pipeline into the index.
// It is mounted outside the TimeoutHandler and the JSON body cap: the
// body is consumed incrementally (never buffered whole), and
// backpressure is applied per chunk instead of per request. Each chunk
// of bulkChunkRecords records takes one admission token from the same
// semaphore as /add, so a long-running stream shares capacity with
// interactive traffic rather than starving it.
func (s *server) handleBulk(w http.ResponseWriter, r *http.Request) {
	// The server's read/write deadlines are sized for request/response
	// endpoints; a bulk stream legitimately runs longer. Clear them for
	// this connection (admission control still bounds the work rate).
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})

	decode := func(raw string) (*dvicl.Graph, error) {
		g, err := graph.FromGraph6(raw)
		if err != nil {
			return nil, err
		}
		if g.N() > s.maxVerts {
			return nil, fmt.Errorf("graph has %d vertices, limit %d", g.N(), s.maxVerts)
		}
		return g, nil
	}

	var total bulkResp
	const maxErrors = 20
	start := time.Now()
	runChunk := func(chunk []string, firstLine int) (int, error) {
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			return 0, r.Context().Err() // client gone; status is moot
		}
		defer func() { <-s.sem }()
		rep, err := pipeline.Run(pipeline.Config{
			Ctx:     r.Context(),
			Workers: s.bulkWorkers,
			Decode:  decode,
			Canon:   s.ix.BuildCert,
			Apply: func(seq int64, cert string) error {
				_, dup, err := s.ix.AddCertCtx(r.Context(), cert)
				if err != nil {
					return err
				}
				if dup {
					total.Duplicates++
				} else {
					total.NewClasses++
				}
				return nil
			},
			Obs: s.rec,
		}, pipeline.SliceSource(chunk, firstLine))
		total.Records += rep.Records
		total.Applied += rep.Applied
		total.DecodeErrors += rep.DecodeErrors
		for _, e := range rep.Errors {
			if len(total.Errors) < maxErrors {
				total.Errors = append(total.Errors, e)
			}
		}
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, dvicl.ErrCanceled):
				s.rec.Inc(obs.IndexCanceled)
				reqInfoFrom(r.Context()).fail("canceled", err.Error())
				status = http.StatusServiceUnavailable
			case errors.Is(err, dvicl.ErrBudgetExceeded):
				reqInfoFrom(r.Context()).fail("budget_exceeded", err.Error())
				status = http.StatusServiceUnavailable
			case errors.Is(err, dvicl.ErrIndexClosed):
				status = http.StatusServiceUnavailable
			}
			return status, err
		}
		return 0, nil
	}

	sc := graph.NewGraph6Scanner(r.Body)
	chunk := make([]string, 0, bulkChunkRecords)
	for {
		chunk = chunk[:0]
		firstLine := 0
		for len(chunk) < bulkChunkRecords && sc.Scan() {
			if firstLine == 0 {
				firstLine = sc.Line()
			}
			chunk = append(chunk, sc.Text())
		}
		if len(chunk) == 0 {
			break
		}
		if status, err := runChunk(chunk, firstLine); err != nil {
			if status != 0 {
				s.writeErr(w, r, status, err.Error())
			}
			return
		}
	}
	if err := sc.Err(); err != nil {
		s.writeErr(w, r, http.StatusBadRequest, "read stream: "+err.Error())
		return
	}

	total.Workers = s.bulkWorkers
	total.ElapsedSeconds = time.Since(start).Seconds()
	if total.ElapsedSeconds > 0 {
		total.GraphsPerSec = float64(total.Applied) / total.ElapsedSeconds
	}
	total.Index = s.ix.Stats()
	writeJSON(w, http.StatusOK, total)
}

func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.ix.Flush(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errResp{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.ix.Stats())
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResp{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Index:         s.ix.Stats(),
		Counters:      s.rec.Snapshot().Counters,
	})
}

// handleMetrics serves the Prometheus text exposition: every counter as
// a dvicl_*_total series, the phase timers as one histogram family, and
// the live IndexStats as gauges (including a per-shard graphs series for
// watching the certificate hash balance).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	gauges := []obs.PromGauge{
		{Name: "index_graphs", Help: "Graphs stored in the index.", Value: float64(st.Graphs)},
		{Name: "index_classes", Help: "Distinct isomorphism classes stored.", Value: float64(st.Classes)},
		{Name: "index_duplicates", Help: "Adds collapsed onto an existing class.", Value: float64(st.Duplicates)},
		{Name: "index_shards", Help: "Configured shard count.", Value: float64(st.Shards)},
		{Name: "index_cache_entries", Help: "Certificate LRU cache entries.", Value: float64(st.CacheEntries)},
		{Name: "index_wal_records", Help: "WAL appends since the last snapshot, summed across shards.", Value: float64(st.WALRecords)},
		{Name: "uptime_seconds", Help: "Seconds since the daemon started.", Value: time.Since(s.start).Seconds()},
	}
	if ts := st.TreeStore; ts != nil {
		gauges = append(gauges,
			obs.PromGauge{Name: "treestore_entries", Help: "Decoded AutoTrees cached in memory, summed across shards.", Value: float64(ts.Entries)},
			obs.PromGauge{Name: "treestore_bytes", Help: "Encoded bytes of cached AutoTrees, summed across shards.", Value: float64(ts.Bytes)},
			obs.PromGauge{Name: "treestore_mem_budget_bytes", Help: "Configured decoded-tree cache budget (index-wide).", Value: float64(ts.MemBudget)},
		)
	}
	for i, n := range st.ShardGraphs {
		gauges = append(gauges, obs.PromGauge{
			Name:   "index_shard_graphs",
			Help:   "Graphs stored per shard (certificate hash balance).",
			Labels: []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}},
			Value:  float64(n),
		})
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = obs.WriteProm(w, s.rec.Snapshot(), gauges)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
