package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Inc(SearchNodes)
	r.Add(SearchLeaves, 5)
	r.ObservePhase(PhaseBuild, time.Millisecond)
	StartUnder(r, nil, PhaseRefine).End()
	r.Reset()
	if got := r.Counter(SearchNodes); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != int(numCounters) {
		t.Fatalf("nil snapshot has %d counters, want %d", len(s.Counters), numCounters)
	}
	for name, v := range s.Counters {
		if v != 0 {
			t.Fatalf("nil snapshot counter %s = %d", name, v)
		}
	}
	if len(s.Phases) != 0 {
		t.Fatalf("nil snapshot has phases: %v", s.Phases)
	}
}

func TestCounterAndPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || name == "unknown_counter" {
			t.Fatalf("counter %d has no name", c)
		}
		if strings.ToLower(name) != name || strings.Contains(name, " ") {
			t.Fatalf("counter name %q is not snake_case", name)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown_phase" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("phase name %q collides with a counter", name)
		}
	}
	if Counter(numCounters).String() != "unknown_counter" {
		t.Fatal("out-of-range counter should be unknown")
	}
	if Phase(numPhases).String() != "unknown_phase" {
		t.Fatal("out-of-range phase should be unknown")
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	r := New()
	r.Inc(RefineCalls)
	r.Add(CellSplits, 41)
	r.Inc(CellSplits)
	if got := r.Counter(CellSplits); got != 42 {
		t.Fatalf("CellSplits = %d, want 42", got)
	}
	r.ObservePhase(PhaseRefine, 100*time.Nanosecond)
	r.ObservePhase(PhaseRefine, 3*time.Microsecond)
	s := r.Snapshot()
	if s.Counters["cell_splits"] != 42 || s.Counters["refine_calls"] != 1 {
		t.Fatalf("snapshot counters: %v", s.Counters)
	}
	if s.Counters["search_nodes"] != 0 {
		t.Fatal("untouched counters must still appear (as zero)")
	}
	ps, ok := s.Phases["refine"]
	if !ok {
		t.Fatalf("refine phase missing: %v", s.Phases)
	}
	if ps.Count != 2 || ps.TotalNs != 3100 || ps.MinNs != 100 || ps.MaxNs != 3000 {
		t.Fatalf("refine phase stats: %+v", ps)
	}
	var bucketTotal int64
	for _, b := range ps.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 2 {
		t.Fatalf("bucket counts sum to %d, want 2", bucketTotal)
	}
	r.Reset()
	if r.Counter(CellSplits) != 0 || len(r.Snapshot().Phases) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add(SearchNodes, 7)
	r.ObservePhase(PhaseBuild, time.Millisecond)
	var sb strings.Builder
	if err := r.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["search_nodes"] != 7 {
		t.Fatalf("round-tripped counters: %v", back.Counters)
	}
	if back.Phases["build"].Count != 1 {
		t.Fatalf("round-tripped phases: %v", back.Phases)
	}
}

// TestSnapshotWriteFile: WriteFile writes what WriteJSON writes, and
// reports a path it cannot create.
func TestSnapshotWriteFile(t *testing.T) {
	r := New()
	r.Add(SearchNodes, 7)
	snap := r.Snapshot()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := snap.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("WriteFile wrote %q, WriteJSON writes %q", got, want.String())
	}
	if err := snap.WriteFile(filepath.Join(t.TempDir(), "missing", "metrics.json")); err == nil {
		t.Fatal("WriteFile into a missing directory returned nil")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc(SearchNodes)
				r.ObservePhase(PhaseCombineCL, time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(SearchNodes); got != workers*per {
		t.Fatalf("concurrent count = %d, want %d", got, workers*per)
	}
	if got := r.Snapshot().Phases["combine_cl"].Count; got != workers*per {
		t.Fatalf("concurrent phase count = %d, want %d", got, workers*per)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := New()
	r.Add(SearchNodes, 123)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr.String()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/debug/metrics"); !strings.Contains(body, `"search_nodes": 123`) {
		t.Fatalf("/debug/metrics missing counter: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "search_nodes") {
		t.Fatalf("/debug/vars missing published recorder: %.200s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: %.200s", body)
	}

	// Re-publishing under the same name swaps the recorder without panic.
	r2 := New()
	r2.Add(SearchNodes, 7)
	Publish("dvicl", r2)
	if body := get("/debug/vars"); !strings.Contains(body, `"search_nodes":7`) {
		t.Fatalf("/debug/vars did not swap recorder: %.500s", body)
	}
}

func TestTimerBucketsCoverExtremes(t *testing.T) {
	r := New()
	r.ObservePhase(PhaseBuild, 0)
	r.ObservePhase(PhaseBuild, time.Duration(1)<<62)
	r.ObservePhase(PhaseBuild, -time.Second) // clamped to 0
	ps := r.Snapshot().Phases["build"]
	if ps.Count != 3 {
		t.Fatalf("count = %d", ps.Count)
	}
	if ps.MaxNs != 1<<62 {
		t.Fatalf("max = %d", ps.MaxNs)
	}
}

func ExampleRecorder() {
	r := New()
	r.Inc(DivideICalls)
	sp := StartUnder(r, nil, PhaseDivideI)
	sp.End()
	fmt.Println(r.Counter(DivideICalls))
	// Output: 1
}

func TestRecorderMerge(t *testing.T) {
	var dst, a, b *Recorder
	dst = New()
	a, b = New(), New()
	a.Add(BulkRecords, 10)
	a.ObservePhase(PhaseBulkIngest, 4*time.Microsecond)
	a.ObservePhase(PhaseBulkIngest, 16*time.Microsecond)
	b.Add(BulkRecords, 5)
	b.Inc(IndexAddDuplicate)
	b.ObservePhase(PhaseBulkIngest, 2*time.Microsecond)

	dst.Merge(a)
	dst.Merge(b)
	dst.Merge(nil)            // no-op
	(*Recorder)(nil).Merge(a) // no-op

	if got := dst.Counter(BulkRecords); got != 15 {
		t.Fatalf("merged bulk_records = %d, want 15", got)
	}
	if got := dst.Counter(IndexAddDuplicate); got != 1 {
		t.Fatalf("merged index_add_duplicate = %d, want 1", got)
	}
	ps, ok := dst.Snapshot().Phases[PhaseBulkIngest.String()]
	if !ok {
		t.Fatal("merged snapshot missing bulk_ingest phase")
	}
	if ps.Count != 3 {
		t.Fatalf("merged phase count = %d, want 3", ps.Count)
	}
	wantTotal := int64(22 * time.Microsecond)
	if ps.TotalNs != wantTotal {
		t.Fatalf("merged phase total = %d, want %d", ps.TotalNs, wantTotal)
	}
	if ps.MinNs != int64(2*time.Microsecond) || ps.MaxNs != int64(16*time.Microsecond) {
		t.Fatalf("merged min/max = %d/%d", ps.MinNs, ps.MaxNs)
	}
	var bucketSum int64
	for _, bk := range ps.Buckets {
		bucketSum += bk.Count
	}
	if bucketSum != 3 {
		t.Fatalf("merged buckets sum to %d, want 3", bucketSum)
	}
}
