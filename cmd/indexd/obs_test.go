package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvicl"
	"dvicl/internal/obs"
)

// newObsServer builds a server with the observability knobs set for
// testing: a sharded index, a 1ns slow-build threshold (every request
// lands in the slow ring), and no logger noise.
func newObsServer(t *testing.T) (*httptest.Server, *server, *dvicl.MetricsRecorder) {
	t.Helper()
	rec := dvicl.NewMetricsRecorder()
	ix, err := dvicl.OpenGraphIndex("", dvicl.IndexOptions{DviCL: dvicl.Options{Obs: rec}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := newServer(ix, rec, serverConfig{
		MaxInflight: 8,
		MaxVerts:    1 << 20,
		SlowBuild:   time.Nanosecond,
	})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	t.Cleanup(ts.Close)
	return ts, srv, rec
}

// TestMetricsEndpoint is the acceptance check: /metrics serves a valid
// Prometheus text exposition that the vendored linter accepts, with the
// counter families, the phase histogram, and the per-shard gauges.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newObsServer(t)
	if code := postJSON(t, ts.URL+"/add", c4Body, nil); code != http.StatusOK {
		t.Fatalf("add status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if problems := obs.LintProm(text); len(problems) != 0 {
		t.Fatalf("/metrics fails lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		"dvicl_http_requests_total",
		"dvicl_index_adds_total 1",
		"# TYPE dvicl_phase_duration_seconds histogram",
		`dvicl_phase_duration_seconds_bucket{phase="build",le="+Inf"}`,
		"dvicl_index_graphs 1",
		"dvicl_index_shards 4",
		`dvicl_index_shard_graphs{shard="0"}`,
		`dvicl_index_shard_graphs{shard="3"}`,
		"dvicl_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRequestIDs: a well-formed client id is accepted and echoed; a
// missing or malformed one is replaced by a generated id; errors carry
// the id in the body.
func TestRequestIDs(t *testing.T) {
	ts, _, _ := newObsServer(t)
	do := func(id, body string) (*http.Response, errResp) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/add", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errResp
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}

	resp, _ := do("client-id-17", c4Body)
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-17" {
		t.Fatalf("echoed id = %q, want client-id-17", got)
	}

	resp, _ = do("", c4Body)
	gen := resp.Header.Get("X-Request-Id")
	if len(gen) != 16 {
		t.Fatalf("generated id = %q, want 16 hex chars", gen)
	}

	// Malformed ids are replaced by generated ones. The control-character
	// case can't travel through http.Client (it rejects the header), so
	// drive requestID directly.
	for _, bad := range []string{"bad\nid", "bad\x01id", strings.Repeat("x", maxRequestIDLen+1)} {
		req := httptest.NewRequest("POST", "/add", nil)
		req.Header["X-Request-Id"] = []string{bad}
		if got := requestID(req); got == bad || len(got) != 16 {
			t.Fatalf("malformed client id %q not replaced: %q", bad, got)
		}
	}

	// Error responses carry the id in the JSON body.
	resp, e := do("err-req-1", `{"n":2,"edges":[[0,9]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edge status %d", resp.StatusCode)
	}
	if e.RequestID != "err-req-1" || e.Error == "" {
		t.Fatalf("error body = %+v, want request_id err-req-1", e)
	}
}

// TestDebugBuilds: after a request, /debug/builds shows the build with
// its span tree, per-phase durations, and counter deltas; with a 1ns
// threshold the build also lands in the slow ring.
func TestDebugBuilds(t *testing.T) {
	ts, _, _ := newObsServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/add", bytes.NewReader([]byte(c4Body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "flight-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var builds buildsResp
	r2, err := http.Get(ts.URL + "/debug/builds")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&builds); err != nil {
		t.Fatal(err)
	}
	if len(builds.Recent) != 1 || len(builds.Slow) != 1 {
		t.Fatalf("recent/slow = %d/%d records, want 1/1 (threshold %gms)",
			len(builds.Recent), len(builds.Slow), builds.SlowThresholdMs)
	}
	rec := builds.Recent[0]
	if rec.RequestID != "flight-1" || rec.Endpoint != "add" || rec.Outcome != "ok" || rec.Status != 200 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.GraphN != 4 || rec.GraphM != 4 {
		t.Fatalf("graph size = %d/%d, want 4/4", rec.GraphN, rec.GraphM)
	}
	if !rec.Slow || rec.DurMs <= 0 {
		t.Fatalf("slow=%v dur_ms=%g, want slow record with positive duration", rec.Slow, rec.DurMs)
	}

	// The span tree: request → index_add → build, all ended.
	tr := rec.Trace
	if tr.ID != "flight-1" || tr.Spans.Name != "request" || tr.Spans.Running {
		t.Fatalf("trace root = %+v", tr.Spans)
	}
	names := map[string]int{}
	var walk func(s dvicl.SpanSnapshot)
	walk = func(s dvicl.SpanSnapshot) {
		names[s.Name]++
		if s.DurNs < 1 {
			t.Errorf("span %s has no duration", s.Name)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Spans)
	for _, want := range []string{"index_add", "build", "refine"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from tree %v", want, names)
		}
	}

	// Counter deltas and phase durations for exactly this request.
	if tr.Counters["index_adds"] != 1 {
		t.Fatalf("trace counters = %v, want index_adds=1", tr.Counters)
	}
	if ps, ok := tr.Phases["build"]; !ok || ps.Count != 1 {
		t.Fatalf("trace phases = %v, want one build span", tr.Phases)
	}
}

// TestFlightRecorderSlowRingSurvivesFastBursts: the slow ring retains a
// slow outlier even after enough fast requests to wrap the recent ring.
func TestFlightRecorderSlowRingSurvivesFastBursts(t *testing.T) {
	f := newFlightRecorder(2, time.Millisecond, nil)
	f.record(buildRecord{RequestID: "slow-1", DurMs: 50})
	for i := 0; i < 5; i++ {
		f.record(buildRecord{RequestID: "fast", DurMs: 0.01})
	}
	if got := f.recent.list(); len(got) != 2 || got[0].RequestID != "fast" {
		t.Fatalf("recent ring: %+v", got)
	}
	slow := f.slow.list()
	if len(slow) != 1 || slow[0].RequestID != "slow-1" || !slow[0].Slow {
		t.Fatalf("slow ring lost the outlier: %+v", slow)
	}
}

// TestThrottleCountsBothCounters pins the satellite invariant: a 503
// from the admission limiter increments http_throttled AND http_errors
// (the limiter returns its rejection as an error, which instrumented
// counts like any other).
func TestThrottleCountsBothCounters(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 1, MaxVerts: 1 << 20})

	srv.sem <- struct{}{} // occupy the only admission token
	w := httptest.NewRecorder()
	srv.limited(srv.traced("add", srv.handleAdd))(w,
		httptest.NewRequest("POST", "/add", bytes.NewReader([]byte(c4Body))))
	<-srv.sem

	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if got := rec.Counter(obs.HTTPThrottled); got != 1 {
		t.Fatalf("http_throttled = %d, want 1", got)
	}
	if got := rec.Counter(obs.HTTPErrors); got != 1 {
		t.Fatalf("http_errors = %d, want 1 (throttled 503s must count as errors too)", got)
	}
	if got := rec.Counter(obs.HTTPRequests); got != 1 {
		t.Fatalf("http_requests = %d, want 1", got)
	}
}

// TestStatsShardGraphs: /stats always exposes the per-shard graph
// counts, summing to the total.
func TestStatsShardGraphs(t *testing.T) {
	ts, _, _ := newObsServer(t)
	for _, body := range []string{c4Body, p4Body, `{"n":3,"edges":[[0,1],[1,2],[2,0]]}`} {
		if code := postJSON(t, ts.URL+"/add", body, nil); code != http.StatusOK {
			t.Fatalf("add status %d", code)
		}
	}
	var st statsResp
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Index.ShardGraphs) != 4 {
		t.Fatalf("shard_graphs = %v, want 4 entries", st.Index.ShardGraphs)
	}
	sum := 0
	for _, n := range st.Index.ShardGraphs {
		sum += n
	}
	if sum != st.Index.Graphs || sum != 3 {
		t.Fatalf("shard_graphs %v sums to %d, want graphs total %d = 3",
			st.Index.ShardGraphs, sum, st.Index.Graphs)
	}
}

// TestBulkTraceDetached: a /bulk request is traced at the request level
// (one bulk_ingest span with record totals) without a span per record —
// the pipeline detaches the trace before fanning out.
func TestBulkTraceDetached(t *testing.T) {
	ts, _, _ := newObsServer(t)
	stream := bulkStream(t, 40, 5)
	resp, err := http.Post(ts.URL+"/bulk", "text/plain", strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}

	var builds buildsResp
	r2, err := http.Get(ts.URL + "/debug/builds")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&builds); err != nil {
		t.Fatal(err)
	}
	if len(builds.Recent) != 1 {
		t.Fatalf("recent = %d records, want 1", len(builds.Recent))
	}
	rec := builds.Recent[0]
	if rec.Endpoint != "bulk" || rec.Outcome != "ok" {
		t.Fatalf("bulk record = %+v", rec)
	}
	var bulkSpans, totalSpans int
	var records int64
	var walk func(s dvicl.SpanSnapshot)
	walk = func(s dvicl.SpanSnapshot) {
		totalSpans++
		if s.Name == "bulk_ingest" {
			bulkSpans++
			records = s.Attrs["records"]
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rec.Trace.Spans)
	if bulkSpans != 1 || records != 40 {
		t.Fatalf("want one bulk_ingest span with records=40, got %d spans records=%d", bulkSpans, records)
	}
	// Detached: no per-record build/index spans in the request tree.
	if totalSpans > 4 {
		t.Fatalf("bulk trace has %d spans — per-record spans leaked into the request tree", totalSpans)
	}
	// But the per-request counter deltas still include the workers' effort.
	if got := rec.Trace.Counters["bulk_records"]; got != 40 {
		t.Fatalf("trace bulk_records = %d, want 40", got)
	}
	if rec.Trace.Counters["index_adds"] != 40 {
		t.Fatalf("trace index_adds = %d, want 40", rec.Trace.Counters["index_adds"])
	}
}

// TestDecodeErrorsCarryRequestID: a malformed body and an oversized one
// are answered with the request's id in the JSON body, like every other
// error on a traced endpoint.
func TestDecodeErrorsCarryRequestID(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20, MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	defer ts.Close()

	for _, tc := range []struct {
		id, body string
		status   int
	}{
		{"bad-body-1", `{"n":4,"edges":`, http.StatusBadRequest},
		{"big-body-1", `{"graph6":"` + strings.Repeat("x", 256) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/add", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errResp
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: non-JSON error body: %v", tc.id, err)
		}
		if resp.StatusCode != tc.status || e.RequestID != tc.id || e.Error == "" {
			t.Fatalf("%s: status %d, body %+v; want %d with request_id %s", tc.id, resp.StatusCode, e, tc.status, tc.id)
		}
	}
}

// TestBulkLeftWaitingForTokenIsCanceled: a /bulk whose client leaves
// while the stream waits for its admission token is filed as a canceled
// 503, not as a successful request.
func TestBulkLeftWaitingForTokenIsCanceled(t *testing.T) {
	ts, srv, rec := newObsServer(t)
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	}()

	// An empty body lets the server watch the connection, so it sees the
	// client leave while the handler still waits.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/bulk", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("/bulk answered %d while every admission token was taken", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var builds buildsResp
		if code := getJSON(t, ts.URL+"/debug/builds", &builds); code != http.StatusOK {
			t.Fatalf("/debug/builds status %d", code)
		}
		if len(builds.Recent) == 1 {
			b := builds.Recent[0]
			if b.Endpoint != "bulk" || b.Status != http.StatusServiceUnavailable || b.Outcome != "canceled" {
				t.Fatalf("bulk record = %+v, want a canceled 503", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned /bulk never reached the flight recorder")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rec.Counter(obs.IndexCanceled); got != 1 {
		t.Fatalf("index_canceled = %d, want 1", got)
	}
}
