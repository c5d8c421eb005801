package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dvicl"
)

// newSymTestServer is newTestServer with the AutoTree store enabled —
// the configuration main() builds by default.
func newSymTestServer(t *testing.T, dir string) (*httptest.Server, *dvicl.GraphIndex) {
	t.Helper()
	rec := dvicl.NewMetricsRecorder()
	opt := dvicl.IndexOptions{
		DviCL:     dvicl.Options{Obs: rec},
		TreeStore: &dvicl.TreeStoreOptions{},
	}
	ix, err := dvicl.OpenGraphIndex(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := newServer(ix, rec, serverConfig{MaxInflight: 8, MaxVerts: 1 << 20})
	ts := httptest.NewServer(srv.handler(10 * time.Second))
	t.Cleanup(ts.Close)
	return ts, ix
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestSymmetryEndpoints(t *testing.T) {
	ts, _ := newSymTestServer(t, "")
	var add addResp
	postJSON(t, ts.URL+"/add", c4Body, &add)          // id 0
	postJSON(t, ts.URL+"/add", c4RelabeledBody, &add) // id 1, duplicate class
	postJSON(t, ts.URL+"/add", p4Body, &add)          // id 2

	var orb orbitsResp
	if code := getJSON(t, ts.URL+"/orbits?id=0", &orb); code != 200 {
		t.Fatalf("/orbits status %d", code)
	}
	// C4 is vertex-transitive: one orbit holding all four vertices.
	if orb.N != 4 || len(orb.Orbits) != 1 || len(orb.Orbits[0]) != 4 {
		t.Fatalf("/orbits(C4) = %+v", orb)
	}

	var ag autgroupResp
	if code := getJSON(t, ts.URL+"/autgroup?id=0", &ag); code != 200 {
		t.Fatalf("/autgroup status %d", code)
	}
	if ag.Order != "8" { // |Aut(C4)| = dihedral group D4
		t.Fatalf("/autgroup(C4) order = %q, want 8", ag.Order)
	}
	if len(ag.Generators) == 0 {
		t.Fatal("/autgroup(C4) returned no generators")
	}

	var q quotientResp
	if code := getJSON(t, ts.URL+"/quotient?id=0", &q); code != 200 {
		t.Fatalf("/quotient status %d", code)
	}
	if q.QuotientN != 1 || len(q.OrbitOf) != 4 {
		t.Fatalf("/quotient(C4) = %+v", q)
	}

	var sm ssmResp
	if code := postJSON(t, ts.URL+"/ssm", `{"id":0,"pattern":[0,1],"limit":16}`, &sm); code != 200 {
		t.Fatalf("/ssm status %d", code)
	}
	if sm.Count == "" || sm.Count == "0" {
		t.Fatalf("/ssm(C4, edge) count = %q", sm.Count)
	}
	if len(sm.Images) == 0 {
		t.Fatal("/ssm(C4, edge) enumerated no images")
	}

	// Isomorphic graphs answer identically (class-level semantics).
	var orb1 orbitsResp
	getJSON(t, ts.URL+"/orbits?id=1", &orb1)
	a, _ := json.Marshal(orb.Orbits)
	b, _ := json.Marshal(orb1.Orbits)
	if string(a) != string(b) {
		t.Fatalf("isomorphic ids answer differently: %s vs %s", a, b)
	}

	// P4 (id 2) is not vertex-transitive: expect 2 orbits of size 2.
	var orbP orbitsResp
	getJSON(t, ts.URL+"/orbits?id=2", &orbP)
	if len(orbP.Orbits) != 2 {
		t.Fatalf("/orbits(P4) = %+v", orbP)
	}
}

func TestSymmetryWarmPathCounters(t *testing.T) {
	ts, _ := newSymTestServer(t, "")
	var add addResp
	postJSON(t, ts.URL+"/add", c4Body, &add)

	counters := func() map[string]int64 {
		var st statsResp
		if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
			t.Fatalf("/stats status %d", code)
		}
		return st.Counters
	}
	// Prime the cache (first query may rebuild if the write-behind persist
	// has not landed yet), then pin: warm queries do zero DviCL builds.
	if code := getJSON(t, ts.URL+"/orbits?id=0", nil); code != 200 {
		t.Fatalf("prime /orbits status %d", code)
	}
	warmStart := counters()
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/orbits?id=0", nil)
		getJSON(t, ts.URL+"/autgroup?id=0", nil)
		getJSON(t, ts.URL+"/quotient?id=0", nil)
		postJSON(t, ts.URL+"/ssm", `{"id":0,"pattern":[0]}`, nil)
	}
	warmEnd := counters()
	if warmEnd["tree_rebuilds"] != warmStart["tree_rebuilds"] {
		t.Fatalf("warm symmetry queries rebuilt trees: %d -> %d",
			warmStart["tree_rebuilds"], warmEnd["tree_rebuilds"])
	}
	if warmEnd["treestore_mem_hits"] <= warmStart["treestore_mem_hits"] {
		t.Fatal("warm symmetry queries recorded no treestore_mem_hits")
	}
	for _, c := range []string{"symmetry_query_orbits", "symmetry_query_autgroup",
		"symmetry_query_quotient", "symmetry_query_ssm"} {
		if warmEnd[c] < 3 {
			t.Fatalf("counter %s = %d, want >= 3", c, warmEnd[c])
		}
	}
}

func TestSymmetryEndpointErrors(t *testing.T) {
	ts, _ := newSymTestServer(t, "")
	var add addResp
	postJSON(t, ts.URL+"/add", c4Body, &add)

	var e errResp
	if code := getJSON(t, ts.URL+"/orbits?id=99", &e); code != 404 {
		t.Fatalf("unknown id status %d (%+v)", code, e)
	}
	if code := getJSON(t, ts.URL+"/orbits?id=x", &e); code != 400 {
		t.Fatalf("malformed id status %d", code)
	}
	if code := getJSON(t, ts.URL+"/autgroup", &e); code != 400 {
		t.Fatalf("missing id status %d", code)
	}
	if code := postJSON(t, ts.URL+"/ssm", `{"id":0,"pattern":[0,9]}`, &e); code != 400 {
		t.Fatalf("out-of-range pattern status %d", code)
	}
	if code := postJSON(t, ts.URL+"/ssm", `{"id":0,"pattern":[1,1]}`, &e); code != 400 {
		t.Fatalf("duplicate pattern status %d", code)
	}
	if code := postJSON(t, ts.URL+"/ssm", `{"id":0,"pattern":[0],"limit":99999}`, &e); code != 400 {
		t.Fatalf("oversized limit status %d", code)
	}
	// Request ids flow through the symmetry handlers like every traced
	// endpoint.
	req, _ := http.NewRequest("GET", ts.URL+"/orbits?id=0", nil)
	req.Header.Set("X-Request-Id", "sym-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "sym-test-1" {
		t.Fatalf("X-Request-Id = %q", got)
	}
}

// TestSymmetryRestartServing: a restarted daemon serves identical
// symmetry answers from the persisted tree store.
func TestSymmetryRestartServing(t *testing.T) {
	dir := t.TempDir()
	ts1, ix1 := newSymTestServer(t, dir)
	var add addResp
	postJSON(t, ts1.URL+"/add", c4Body, &add)
	var before autgroupResp
	getJSON(t, ts1.URL+"/autgroup?id=0", &before)
	ts1.Close()
	if err := ix1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newSymTestServer(t, dir)
	var after autgroupResp
	if code := getJSON(t, ts2.URL+"/autgroup?id=0", &after); code != 200 {
		t.Fatalf("restarted /autgroup status %d", code)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if string(a) != string(b) {
		t.Fatalf("autgroup answer changed across restart:\n%s\n%s", a, b)
	}
	var st statsResp
	getJSON(t, ts2.URL+"/stats", &st)
	if st.Counters["tree_rebuilds"] != 0 {
		t.Fatalf("restarted query rebuilt %d trees; want disk hits", st.Counters["tree_rebuilds"])
	}
}

func TestReadyzEndpoint(t *testing.T) {
	ts, ix := newSymTestServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz status %d", resp.StatusCode)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Liveness stays up after the index closes; readiness drops.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-close /healthz status %d", resp.StatusCode)
	}
	var e errResp
	if code := getJSON(t, ts.URL+"/readyz", &e); code != 503 {
		t.Fatalf("post-close /readyz status %d (%+v)", code, e)
	}
}

// TestReadyzInMemory: an in-memory daemon without a tree store is ready
// while its index is open and answers 503 once shutdown closes it.
func TestReadyzInMemory(t *testing.T) {
	ts, ix := newTestServer(t, "")
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("/readyz status %d", code)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var e errResp
	if code := getJSON(t, ts.URL+"/readyz", &e); code != 503 {
		t.Fatalf("post-close /readyz status %d (%+v)", code, e)
	}
}
