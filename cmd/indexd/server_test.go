package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dvicl"
	"dvicl/internal/gen"
)

func newTestServer(t *testing.T, dir string) (*httptest.Server, *dvicl.GraphIndex) {
	t.Helper()
	rec := dvicl.NewMetricsRecorder()
	ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{DviCL: dvicl.Options{Obs: rec}})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	t.Cleanup(ts.Close)
	return ts, ix
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

const c4Body = `{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`

// c4 relabeled: still a 4-cycle, different labeling.
const c4RelabeledBody = `{"n":4,"edges":[[0,2],[2,1],[1,3],[3,0]]}`
const p4Body = `{"n":4,"edges":[[0,1],[1,2],[2,3]]}`

func TestAddLookupEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, "")

	var add addResp
	if code := postJSON(t, ts.URL+"/add", c4Body, &add); code != 200 {
		t.Fatalf("/add status %d", code)
	}
	if add.ID != 0 || add.Duplicate {
		t.Fatalf("/add = %+v", add)
	}
	if postJSON(t, ts.URL+"/add", c4RelabeledBody, &add); !add.Duplicate {
		t.Fatalf("relabeled C4 not flagged duplicate: %+v", add)
	}
	if postJSON(t, ts.URL+"/add", p4Body, &add); add.Duplicate {
		t.Fatalf("P4 flagged duplicate: %+v", add)
	}

	var lk lookupResp
	if code := postJSON(t, ts.URL+"/lookup", c4Body, &lk); code != 200 {
		t.Fatalf("/lookup status %d", code)
	}
	if len(lk.IDs) != 2 || lk.IDs[0] != 0 || lk.IDs[1] != 1 {
		t.Fatalf("/lookup ids = %v", lk.IDs)
	}
	// Absent class: empty ids array, not null.
	var raw map[string]json.RawMessage
	postJSON(t, ts.URL+"/lookup", `{"n":3,"edges":[[0,1],[1,2],[0,2]]}`, &raw)
	if string(raw["ids"]) != "[]" {
		t.Fatalf(`absent lookup ids = %s, want []`, raw["ids"])
	}
}

func TestGraph6Body(t *testing.T) {
	ts, _ := newTestServer(t, "")
	g := dvicl.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	g6, err := dvicl.ToGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	var add addResp
	body, _ := json.Marshal(map[string]string{"graph6": g6})
	if code := postJSON(t, ts.URL+"/add", string(body), &add); code != 200 {
		t.Fatalf("/add graph6 status %d", code)
	}
	var lk lookupResp
	postJSON(t, ts.URL+"/lookup", c4Body, &lk)
	if len(lk.IDs) != 1 {
		t.Fatalf("edge-list lookup of graph6 add = %v", lk.IDs)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "")
	body := fmt.Sprintf(`{"ops":[
		{"op":"add","n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},
		{"op":"add","n":4,"edges":[[0,1],[1,2],[2,3]]},
		{"op":"lookup","n":4,"edges":[[0,2],[2,1],[1,3],[3,0]]},
		{"op":"frobnicate","n":1,"edges":[]},
		{"op":"add","n":2,"edges":[[0,5]]}
	]}`)
	var resp batchResp
	if code := postJSON(t, ts.URL+"/batch", body, &resp); code != 200 {
		t.Fatalf("/batch status %d", code)
	}
	r := resp.Results
	if len(r) != 5 {
		t.Fatalf("results = %+v", r)
	}
	if r[0].ID == nil || *r[0].ID != 0 || r[1].ID == nil || *r[1].ID != 1 {
		t.Fatalf("batch adds = %+v %+v", r[0], r[1])
	}
	if len(r[2].IDs) != 1 || r[2].IDs[0] != 0 {
		t.Fatalf("batch lookup = %+v", r[2])
	}
	if r[3].Error == "" || r[4].Error == "" {
		t.Fatalf("batch errors = %+v %+v", r[3], r[4])
	}
}

func TestValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for _, body := range []string{
		`{"n":-1,"edges":[]}`,
		`{"n":2,"edges":[[0,7]]}`,
		`{"n":2,"edges":[[0,1]],"bogus":true}`,
		`not json`,
		`{"graph6":"bad"}`,
	} {
		var e errResp
		if code := postJSON(t, ts.URL+"/add", body, &e); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d (want 400), err %q", body, code, e.Error)
		}
		if e.Error == "" {
			t.Fatalf("body %q: no error message", body)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/add")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /add status %d", resp.StatusCode)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())
	postJSON(t, ts.URL+"/add", c4Body, nil)
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/lookup", c4Body, nil)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	var st statsResp
	r2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Graphs != 1 || !st.Index.Persistent {
		t.Fatalf("stats index = %+v", st.Index)
	}
	// The repeated identical Lookups hit the certificate cache, and the
	// hits show up both in index stats and the counter map.
	if st.Index.CacheHits != 5 {
		t.Fatalf("cache hits = %d, want 5", st.Index.CacheHits)
	}
	if st.Counters["cert_cache_hits"] != 5 || st.Counters["index_lookups"] != 5 || st.Counters["index_adds"] != 1 {
		t.Fatalf("counters = %v", st.Counters)
	}
	if st.Counters["http_requests"] < 6 {
		t.Fatalf("http_requests = %d", st.Counters["http_requests"])
	}
}

// TestFlushEndpoint: /flush syncs the WALs of a durable index and
// answers with the index stats.
func TestFlushEndpoint(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, dir)
	postJSON(t, ts.URL+"/add", c4Body, nil)
	var st dvicl.IndexStats
	if code := postJSON(t, ts.URL+"/flush", ``, &st); code != 200 {
		t.Fatalf("/flush status %d", code)
	}
	if st.Graphs != 1 || st.Classes != 1 || !st.Persistent {
		t.Fatalf("/flush stats = %+v", st)
	}
}

// TestBackpressure drives more concurrent requests than the admission
// limit and expects at least one 503 with Retry-After.
func TestBackpressure(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 1, MaxVerts: 1 << 20})

	// Hold the only token.
	release := make(chan struct{})
	blocked := srv.limited(func(w http.ResponseWriter, r *http.Request) error { <-release; return nil })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/add", nil)
		blocked(httptest.NewRecorder(), req)
	}()
	// Wait for the token to be taken.
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the token")
		}
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	srv.limited(func(http.ResponseWriter, *http.Request) error {
		t.Error("second request should have been rejected")
		return nil
	})(w, httptest.NewRequest("POST", "/add", bytes.NewReader([]byte(c4Body))))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("throttled response: code=%d headers=%v", w.Code, w.Header())
	}
	close(release)
	wg.Wait()
}

// bulkStream builds a graph6 stream of k graphs from `classes` iso-classes
// (copies beyond the first occurrence relabeled by a rotation).
func bulkStream(t *testing.T, k, classes int) string {
	t.Helper()
	var sb bytes.Buffer
	for i := 0; i < k; i++ {
		g := gen.ErdosRenyi(12, 20, int64(500+i%classes))
		if i >= classes {
			perm := make([]int, g.N())
			for v := range perm {
				perm[v] = (v + 1 + i) % g.N()
			}
			g = g.Permute(perm)
		}
		s, err := dvicl.ToGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBulkEndpoint streams hundreds of records through /bulk and checks
// that the report and the index agree on classes and duplicates — and
// that the stream interoperates with /lookup.
func TestBulkEndpoint(t *testing.T) {
	ts, ix := newTestServer(t, "")
	const k, classes = 600, 7
	stream := bulkStream(t, k, classes)

	var rep bulkResp
	if code := postJSON(t, ts.URL+"/bulk", stream, &rep); code != 200 {
		t.Fatalf("/bulk status %d", code)
	}
	if rep.Records != k || rep.Applied != k || rep.DecodeErrors != 0 {
		t.Fatalf("bulk report: %+v", rep.Report)
	}
	if rep.NewClasses != classes || rep.Duplicates != k-classes {
		t.Fatalf("classes/dups = %d/%d, want %d/%d", rep.NewClasses, rep.Duplicates, classes, k-classes)
	}
	if rep.Index.Graphs != k || rep.Index.Classes != classes {
		t.Fatalf("index after bulk: %+v", rep.Index)
	}
	if ix.Len() != k {
		t.Fatalf("ix.Len() = %d", ix.Len())
	}

	// The classes are now visible to the interactive path.
	g := gen.ErdosRenyi(12, 20, 500)
	g6, err := dvicl.ToGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"graph6": g6})
	var lk lookupResp
	postJSON(t, ts.URL+"/lookup", string(body), &lk)
	if len(lk.IDs) == 0 {
		t.Fatal("bulk-ingested class not found by /lookup")
	}
}

// TestBulkEndpointDecodeErrors: garbage records are counted and sampled,
// not fatal.
func TestBulkEndpointDecodeErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	stream := "~~~nope\n" + bulkStream(t, 5, 5) + "!!!\n"
	var rep bulkResp
	if code := postJSON(t, ts.URL+"/bulk", stream, &rep); code != 200 {
		t.Fatalf("/bulk status %d", code)
	}
	if rep.Records != 7 || rep.Applied != 5 || rep.DecodeErrors != 2 {
		t.Fatalf("bulk report: %+v", rep.Report)
	}
	if len(rep.Errors) != 2 || rep.Errors[0].Line != 1 {
		t.Fatalf("sampled errors: %+v", rep.Errors)
	}
}

// TestBulkPersistentSharded: /bulk into a sharded on-disk index, then
// reopen and check everything survived across the shard WALs.
func TestBulkPersistentSharded(t *testing.T) {
	dir := t.TempDir()
	rec := dvicl.NewMetricsRecorder()
	ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{
		DviCL: dvicl.Options{Obs: rec}, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20, BulkWorkers: 2})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	defer ts.Close()

	var rep bulkResp
	if code := postJSON(t, ts.URL+"/bulk", bulkStream(t, 40, 10), &rep); code != 200 {
		t.Fatalf("/bulk status %d", code)
	}
	if rep.Index.Shards != 4 || rep.Index.Graphs != 40 {
		t.Fatalf("sharded bulk: %+v", rep.Index)
	}
	ts.Close() // no ix.Close: simulate a kill

	ix2, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != 40 || ix2.Classes() != 10 {
		t.Fatalf("after reopen: %d graphs, %d classes", ix2.Len(), ix2.Classes())
	}
}

// TestMaxBodyBytes: an oversized JSON body is a 413, not an OOM.
func TestMaxBodyBytes(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20, MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	defer ts.Close()

	big := fmt.Sprintf(`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"graph6":%q}`,
		bytes.Repeat([]byte("x"), 256))
	var e errResp
	if code := postJSON(t, ts.URL+"/add", big, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /add status %d, err %q", code, e.Error)
	}
	if e.Error == "" {
		t.Fatal("413 without a JSON error body")
	}
	// A small body still works.
	var add addResp
	if code := postJSON(t, ts.URL+"/add", `{"n":2,"edges":[[0,1]]}`, &add); code != 200 {
		t.Fatalf("small /add status %d", code)
	}
}

// TestServerPersistenceAcrossRestart: the acceptance scenario — add a
// batch, kill the server without Close, restart on the same directory,
// and the same Lookup batch returns identical ids.
func TestServerPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, dir)
	bodies := []string{c4Body, p4Body, c4RelabeledBody}
	var ids []addResp
	for _, b := range bodies {
		var a addResp
		postJSON(t, ts.URL+"/add", b, &a)
		ids = append(ids, a)
	}
	var before []lookupResp
	for _, b := range bodies {
		var lk lookupResp
		postJSON(t, ts.URL+"/lookup", b, &lk)
		before = append(before, lk)
	}
	ts.Close() // kill the HTTP layer; the index is never Closed ("kill -9")

	ts2, _ := newTestServer(t, dir)
	for i, b := range bodies {
		var lk lookupResp
		postJSON(t, ts2.URL+"/lookup", b, &lk)
		if fmt.Sprint(lk.IDs) != fmt.Sprint(before[i].IDs) {
			t.Fatalf("lookup %d after restart: %v != %v", i, lk.IDs, before[i].IDs)
		}
	}
}

// TestBulkOutlivesReadTimeout: /bulk clears the server's read and write
// deadlines, so a stream that arrives more slowly than ReadTimeout is
// applied in full.
func TestBulkOutlivesReadTimeout(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20})
	ts := httptest.NewUnstartedServer(srv.handler(10 * time.Second))
	ts.Config.ReadTimeout = 200 * time.Millisecond
	ts.Config.WriteTimeout = 200 * time.Millisecond
	ts.Start()
	defer ts.Close()

	const k = 8
	lines := strings.SplitAfter(bulkStream(t, k, k), "\n")
	pr, pw := io.Pipe()
	go func() {
		for _, line := range lines {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
			time.Sleep(60 * time.Millisecond)
		}
		pw.Close()
	}()
	resp, err := http.Post(ts.URL+"/bulk", "text/plain", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep bulkResp
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rep.Applied != k {
		t.Fatalf("slow /bulk: status %d, applied %d of %d", resp.StatusCode, rep.Applied, k)
	}
}

// TestFlushClosedIndexIs503: /flush after shutdown has closed a durable
// index answers 503, like every other endpoint on a closed index.
func TestFlushClosedIndexIs503(t *testing.T) {
	ts, ix := newTestServer(t, t.TempDir())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var e errResp
	if code := postJSON(t, ts.URL+"/flush", ``, &e); code != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("/flush on a closed index: status %d, error %q", code, e.Error)
	}
}

// TestGraph6OverMaxVertsAllocatesLittle: a graph6 /add over -max-verts is
// rejected from its size header. The body is 750 KB, but it encodes
// K_3000, which decodes into about 240 MB of adjacency.
func TestGraph6OverMaxVertsAllocatesLittle(t *testing.T) {
	rec := dvicl.NewMetricsRecorder()
	ix := dvicl.NewGraphIndex(dvicl.Options{Obs: rec})
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 100})
	const n = 3000
	header := string([]byte{126, 63 + n>>12, 63 + n>>6&63, 63 + n&63})
	g6 := header + strings.Repeat("~", (n*(n-1)/2+5)/6)
	body := []byte(`{"graph6":"` + g6 + `"}`)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := httptest.NewRecorder()
	srv.limited(srv.traced("add", srv.handleAdd))(w, httptest.NewRequest("POST", "/add", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)

	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("rejecting a %d-vertex graph6 body allocated %d bytes, want < 8 MiB", n, alloc)
	}
}

// FuzzDecodeGraph: arbitrary request bodies through decodeBody and
// decodeGraph never panic, every error answers 400 or 413, and every
// accepted graph respects -max-verts.
func FuzzDecodeGraph(f *testing.F) {
	for _, seed := range []string{
		c4Body, `{"graph6":"Cr"}`, `{"graph6":"~??~"}`, `{"graph6":"~?@?"}`,
		`{"n":65,"edges":[]}`, `{"n":2,"edges":[[0,5]]}`, `not json`,
	} {
		f.Add([]byte(seed))
	}
	const maxVerts = 64
	srv := newServer(nil, nil, serverConfig{MaxVerts: maxVerts, MaxBodyBytes: 1 << 12})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req graphReq
		err := srv.decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/add", bytes.NewReader(body)), &req)
		if err == nil {
			var g *dvicl.Graph
			if g, err = srv.decodeGraph(&req); err == nil && g.N() > maxVerts {
				t.Fatalf("accepted a graph with %d vertices, limit %d", g.N(), maxVerts)
			}
		}
		if err != nil {
			if st := classify(err).status; st != http.StatusBadRequest && st != http.StatusRequestEntityTooLarge {
				t.Fatalf("error %q answers %d, want 400 or 413", err, st)
			}
		}
	})
}
