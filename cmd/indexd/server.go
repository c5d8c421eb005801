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

// Request-size guardrails: batch fan-out is bounded so one request
// cannot exhaust the process. The JSON body cap is a flag
// (-max-body-bytes); these stay constants.
const (
	defaultMaxBodyBytes = 32 << 20
	maxBatchOps         = 1024
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

// server holds the daemon's state: its resolved configuration, the
// index, the recorder, the flight recorder, and the admission control for
// graph-processing endpoints.
type server struct {
	serverConfig
	ix     *dvicl.GraphIndex
	rec    *dvicl.MetricsRecorder // alias of *obs.Recorder
	sem    chan struct{}          // admission tokens for expensive endpoints
	flight *flightRecorder
	start  time.Time
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
		serverConfig: cfg,
		ix:           ix,
		rec:          rec,
		sem:          make(chan struct{}, cfg.MaxInflight),
		flight:       newFlightRecorder(cfg.FlightSize, cfg.SlowBuild, cfg.Logger),
		start:        time.Now(),
	}
}

// handler assembles the full route table. timeout bounds each request end
// to end (http.TimeoutHandler replies 503 when exceeded) — except /bulk,
// which is a streaming ingest of unbounded duration and waits for its
// admission token instead of being shed.
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

// handlerFunc is an endpoint: it writes its own success response and
// returns any failure, which instrumented answers through writeError.
type handlerFunc func(http.ResponseWriter, *http.Request) error

// instrumented counts and times the request, and answers a returned error
// through writeError, counting it in http_errors. Throttled 503s are
// returned errors too, so they count in http_errors as well as
// http_throttled — an invariant pinned by TestThrottleCountsBothCounters.
func (s *server) instrumented(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.rec.Inc(obs.HTTPRequests)
		defer obs.StartUnder(s.rec, nil, obs.PhaseHTTP).End()
		if err := h(w, r); err != nil {
			s.rec.Inc(obs.HTTPErrors)
			s.writeError(w, err)
		}
	}
}

// limited is instrumented plus admission control: when all tokens are
// taken the request is rejected immediately with 503 + Retry-After —
// backpressure, not an unbounded queue.
func (s *server) limited(h handlerFunc) http.HandlerFunc {
	return s.instrumented(func(w http.ResponseWriter, r *http.Request) error {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rec.Inc(obs.HTTPThrottled)
			return errAtCapacity
		}
		return h(w, r)
	})
}

// reqInfo is what the traced middleware and the handlers share: identity,
// the live trace, and the graph dimensions (filled in once the body is
// decoded). A request's handler runs on one goroutine, so it needs no
// lock.
type reqInfo struct {
	id   string
	tr   *dvicl.Trace
	n, m int
}

// noteGraph records the request's graph size (the largest seen, so a
// batch reports its dominant graph).
func (ri *reqInfo) noteGraph(n, m int) {
	if ri != nil && n > ri.n {
		ri.n, ri.m = n, m
	}
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
// structured slow-build log line past the -slow-build threshold. The
// record's status and outcome are those classify gives the returned
// error.
func (s *server) traced(endpoint string, h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		ri := &reqInfo{id: requestID(r)}
		ri.tr = dvicl.NewTrace(ri.id, s.rec)
		w.Header().Set("X-Request-Id", ri.id)
		ctx := dvicl.WithTrace(r.Context(), ri.tr)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		start := time.Now()
		err := h(w, r.WithContext(ctx))
		ri.tr.Root().End()

		rec := buildRecord{
			RequestID: ri.id,
			Endpoint:  endpoint,
			Status:    http.StatusOK,
			Outcome:   "ok",
			GraphN:    ri.n,
			GraphM:    ri.m,
			Start:     start,
			DurMs:     float64(time.Since(start)) / float64(time.Millisecond),
			Trace:     ri.tr.Snapshot(),
		}
		if err != nil {
			f := classify(err)
			rec.Status, rec.Outcome, rec.Error = f.status, f.outcome, f.msg
		}
		s.flight.record(rec)
		return err
	}
}

// failure is how a request's error is answered. The failures the server
// raises itself — malformed input, an oversized body, a full admission
// limiter, an index that is not ready — are returned as *failure
// directly; classify maps every other error onto one.
type failure struct {
	status  int
	msg     string // the JSON body's "error"
	outcome string // the flight recorder's outcome: canceled, budget_exceeded or error
	// retry adds Retry-After: 1 — the request was shed, not refused.
	retry bool
}

func (f *failure) Error() string { return f.msg }

func badRequest(format string, args ...any) error {
	return &failure{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...), outcome: "error"}
}

// errAtCapacity is the admission limiter's rejection.
var errAtCapacity = &failure{status: http.StatusServiceUnavailable, msg: "server at capacity", outcome: "error", retry: true}

// classify is the one table from a handler's error to its answer. A
// canceled build (client disconnect, or the TimeoutHandler expiring the
// request context mid-canonicalization) and an exhausted build budget
// are 503s: the request was shed, not malformed.
func classify(err error) failure {
	var f *failure
	switch {
	case errors.As(err, &f):
		return *f
	case errors.Is(err, dvicl.ErrCanceled):
		return failure{status: http.StatusServiceUnavailable, msg: "request canceled", outcome: "canceled", retry: true}
	case errors.Is(err, dvicl.ErrBudgetExceeded):
		return failure{status: http.StatusServiceUnavailable, msg: "build budget exceeded", outcome: "budget_exceeded"}
	case errors.Is(err, dvicl.ErrIndexClosed):
		return failure{status: http.StatusServiceUnavailable, msg: err.Error(), outcome: "error"}
	case errors.Is(err, dvicl.ErrUnknownID):
		return failure{status: http.StatusNotFound, msg: err.Error(), outcome: "error"}
	case errors.Is(err, dvicl.ErrInvalidPattern):
		return failure{status: http.StatusBadRequest, msg: err.Error(), outcome: "error"}
	}
	return failure{status: http.StatusInternalServerError, msg: err.Error(), outcome: "error"}
}

// writeError sends classify's answer as a JSON error. The body carries
// the request id that traced set in the X-Request-Id header; a canceled
// request also counts in index_canceled, so load shedding is visible in
// /stats.
func (s *server) writeError(w http.ResponseWriter, err error) {
	f := classify(err)
	if f.outcome == "canceled" {
		s.rec.Inc(obs.IndexCanceled)
	}
	if f.retry {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, f.status, errResp{Error: f.msg, RequestID: w.Header().Get("X-Request-Id")})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeGraph validates and materializes the graph of a request body or
// /bulk record. A graph6 graph's size header is checked against
// -max-verts before anything is decoded: the data section spends one bit
// per vertex pair, so a short body can claim a graph whose decoding would
// take gigabytes.
func (s *server) decodeGraph(req *graphReq) (*dvicl.Graph, error) {
	if req.Graph6 != "" {
		if n, _, err := graph.Graph6Order(req.Graph6); err == nil && n > s.MaxVerts {
			return nil, badRequest("graph has %d vertices, limit %d", n, s.MaxVerts)
		}
		g, err := graph.FromGraph6(req.Graph6)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return g, nil
	}
	if req.N < 0 || req.N > s.MaxVerts {
		return nil, badRequest("n=%d out of range [0,%d]", req.N, s.MaxVerts)
	}
	for _, e := range req.Edges {
		if e[0] < 0 || e[0] >= req.N || e[1] < 0 || e[1] >= req.N {
			return nil, badRequest("edge [%d,%d] out of range [0,%d)", e[0], e[1], req.N)
		}
	}
	return dvicl.FromEdges(req.N, req.Edges), nil
}

// decodeBody JSON-decodes a request body under the -max-body-bytes cap.
// An oversized body is a 413 — MaxBytesReader cuts the read off at the
// limit, so a huge payload never reaches the decoder's buffers, let alone
// the heap.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &failure{
				status:  http.StatusRequestEntityTooLarge,
				msg:     fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				outcome: "error",
			}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) error {
	var req graphReq
	if err := s.decodeBody(w, r, &req); err != nil {
		return err
	}
	g, err := s.decodeGraph(&req)
	if err != nil {
		return err
	}
	reqInfoFrom(r.Context()).noteGraph(g.N(), g.M())
	id, dup, err := s.ix.AddCtx(r.Context(), g)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, addResp{ID: id, Duplicate: dup})
	return nil
}

func (s *server) handleLookup(w http.ResponseWriter, r *http.Request) error {
	var req graphReq
	if err := s.decodeBody(w, r, &req); err != nil {
		return err
	}
	g, err := s.decodeGraph(&req)
	if err != nil {
		return err
	}
	reqInfoFrom(r.Context()).noteGraph(g.N(), g.M())
	ids, err := s.ix.LookupCtx(r.Context(), g)
	if err != nil {
		return err
	}
	if ids == nil {
		ids = []int{}
	}
	writeJSON(w, http.StatusOK, lookupResp{IDs: ids})
	return nil
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	var req batchReq
	if err := s.decodeBody(w, r, &req); err != nil {
		return err
	}
	if len(req.Ops) > maxBatchOps {
		return badRequest("batch of %d ops exceeds limit %d", len(req.Ops), maxBatchOps)
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
			var id int
			var dup bool
			if id, dup, err = s.ix.AddCtx(r.Context(), g); err == nil {
				res.ID, res.Duplicate = &id, &dup
			}
		case "lookup":
			var ids []int
			if ids, err = s.ix.LookupCtx(r.Context(), g); err == nil {
				res.IDs = ids
			}
		default:
			err = fmt.Errorf("unknown op %q (want add or lookup)", op.Op)
		}
		// A canceled or over-budget request is dead as a whole, not per
		// op: shed it rather than burn CPU on the remaining ops.
		if errors.Is(err, dvicl.ErrCanceled) || errors.Is(err, dvicl.ErrBudgetExceeded) {
			return err
		}
		if err != nil {
			res.Error = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleBulk streams a graph6 body — one record per line, arbitrarily
// many — through one pipeline run into the index. It is mounted outside
// the TimeoutHandler and the JSON body cap: the body is consumed
// incrementally (never buffered whole). The stream waits for one
// admission token from the same semaphore as /add and holds it until the
// stream ends.
func (s *server) handleBulk(w http.ResponseWriter, r *http.Request) error {
	// The server's read/write deadlines are sized for request/response
	// endpoints; a bulk stream legitimately runs longer.
	rc := http.NewResponseController(w)
	if err := rc.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if err := rc.SetWriteDeadline(time.Time{}); err != nil {
		return err
	}
	ctx := r.Context()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return fmt.Errorf("%w: waiting for admission: %v", dvicl.ErrCanceled, context.Cause(ctx))
	}

	var resp bulkResp
	sc := graph.NewGraph6Scanner(r.Body)
	rep, err := pipeline.Run(pipeline.Config{
		Ctx:     ctx,
		Workers: s.BulkWorkers,
		Decode:  func(raw string) (*dvicl.Graph, error) { return s.decodeGraph(&graphReq{Graph6: raw}) },
		Canon:   s.ix.BuildCert,
		Apply: func(_ int64, cert string) error {
			_, dup, err := s.ix.AddCertCtx(ctx, cert)
			if err != nil {
				return err
			}
			if dup {
				resp.Duplicates++
			} else {
				resp.NewClasses++
			}
			return nil
		},
		Obs: s.rec,
	}, pipeline.ScannerSource(sc))
	// Run has joined its reader, so the scanner is no longer in use.
	if err := sc.Err(); err != nil {
		return badRequest("read stream: %v", err)
	}
	if err != nil {
		return err
	}
	resp.Report = *rep
	resp.Index = s.ix.Stats()
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) error {
	if err := s.ix.Flush(); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, s.ix.Stats())
	return nil
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, statsResp{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Index:         s.ix.Stats(),
		Counters:      s.rec.Snapshot().Counters,
	})
	return nil
}

// handleMetrics serves the Prometheus text exposition: every counter as
// a dvicl_*_total series, the phase timers as one histogram family, and
// the live IndexStats as gauges (including a per-shard graphs series for
// watching the certificate hash balance).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	st := s.ix.Stats()
	gauges := []obs.PromGauge{
		{Name: "index_graphs", Help: "Graphs stored in the index.", Value: float64(st.Graphs)},
		{Name: "index_classes", Help: "Distinct isomorphism classes stored.", Value: float64(st.Classes)},
		{Name: "index_duplicates", Help: "Adds collapsed onto an existing class.", Value: float64(st.Duplicates)},
		{Name: "index_shards", Help: "Configured shard count.", Value: float64(st.Shards)},
		{Name: "index_cache_entries", Help: "Certificate LRU cache entries.", Value: float64(st.CacheEntries)},
		{Name: "uptime_seconds", Help: "Seconds since the daemon started.", Value: time.Since(s.start).Seconds()},
	}
	if ts := st.TreeStore; ts != nil {
		gauges = append(gauges,
			obs.PromGauge{Name: "treestore_entries", Help: "Decoded AutoTrees cached in memory, summed across shards.", Value: float64(ts.Entries)},
			obs.PromGauge{Name: "treestore_bytes", Help: "Estimated heap bytes of cached decoded AutoTrees, summed across shards.", Value: float64(ts.Bytes)},
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
	// An error here is a failed write to the client; there is no one
	// left to answer.
	_ = obs.WriteProm(w, s.rec.Snapshot(), gauges)
	return nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	return nil
}
