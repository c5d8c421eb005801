package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// testStream builds a graph6 stream of k graphs drawn from `classes`
// distinct ER classes (relabeled copies beyond the first occurrence), and
// returns the stream plus the graphs in order.
func testStream(t *testing.T, k, classes int) (string, []*graph.Graph) {
	t.Helper()
	var sb strings.Builder
	var gs []*graph.Graph
	for i := 0; i < k; i++ {
		g := gen.ErdosRenyi(12, 20, int64(1000+i%classes))
		if i >= classes {
			// Relabel with a rotation so duplicates are not byte-identical.
			perm := make([]int, g.N())
			for v := range perm {
				perm[v] = (v + 1 + i) % g.N()
			}
			g = g.Permute(perm)
		}
		s, err := graph.ToGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(s)
		sb.WriteByte('\n')
		gs = append(gs, g)
	}
	return sb.String(), gs
}

func canonFn(ctx context.Context, g *graph.Graph, ws *engine.Workspace, rec *obs.Recorder) (string, error) {
	t, err := core.BuildCtx(ctx, g, nil, core.Options{Obs: rec, Workspace: ws})
	if err != nil {
		return "", err
	}
	return string(t.CanonicalCert()), nil
}

// runCollect runs the pipeline over a graph6 stream and returns the
// certificates in apply order.
func runCollect(t *testing.T, in string, workers int, rec *obs.Recorder) ([]string, *Report) {
	t.Helper()
	var certs []string
	lastSeq := int64(-1)
	rep, err := Run(Config{
		Workers: workers,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply: func(seq int64, cert string) error {
			if seq <= lastSeq {
				t.Fatalf("apply out of order: seq %d after %d", seq, lastSeq)
			}
			lastSeq = seq
			certs = append(certs, cert)
			return nil
		},
		Obs: rec,
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	if err != nil {
		t.Fatal(err)
	}
	return certs, rep
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	in, _ := testStream(t, 60, 7)
	serial, rep1 := runCollect(t, in, 1, nil)
	parallel, repN := runCollect(t, in, 8, nil)
	if rep1.Records != 60 || repN.Records != 60 {
		t.Fatalf("records = %d/%d, want 60", rep1.Records, repN.Records)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("applied %d vs %d certs", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cert %d differs between 1-worker and 8-worker runs", i)
		}
	}
	// 7 distinct classes across 60 records.
	uniq := map[string]bool{}
	for _, c := range serial {
		uniq[c] = true
	}
	if len(uniq) != 7 {
		t.Fatalf("distinct certs = %d, want 7", len(uniq))
	}
}

func TestRunCountsDecodeErrors(t *testing.T) {
	good, _ := testStream(t, 5, 5)
	in := "~~~garbage\n" + good + "!!!\n"
	rec := obs.New()
	certs, rep := runCollect(t, in, 4, rec)
	if len(certs) != 5 {
		t.Fatalf("applied %d certs, want 5", len(certs))
	}
	if rep.Records != 7 || rep.DecodeErrors != 2 || rep.Applied != 5 {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Errors) != 2 {
		t.Fatalf("sampled errors: %+v", rep.Errors)
	}
	if rep.Errors[0].Seq != 0 || rep.Errors[0].Line != 1 {
		t.Fatalf("first error position: %+v", rep.Errors[0])
	}
	if got := rec.Counter(obs.BulkRecords); got != 7 {
		t.Fatalf("bulk_records = %d, want 7", got)
	}
	if got := rec.Counter(obs.BulkDecodeErrors); got != 2 {
		t.Fatalf("bulk_decode_errors = %d, want 2", got)
	}
}

func TestRunMergesWorkerRecorders(t *testing.T) {
	in, _ := testStream(t, 24, 4)
	rec := obs.New()
	_, rep := runCollect(t, in, 6, rec)
	if rep.Applied != 24 {
		t.Fatalf("applied = %d", rep.Applied)
	}
	// Every canonicalization runs at least one refinement; the merged
	// recorder must have collected work from the worker recorders.
	if got := rec.Counter(obs.RefineCalls); got == 0 {
		t.Fatal("merged recorder saw no refine calls — worker recorders not merged")
	}
	ps, ok := rec.Snapshot().Phases[obs.PhaseBulkIngest.String()]
	if !ok || ps.Count != 1 {
		t.Fatalf("bulk_ingest phase: %+v", ps)
	}
}

func TestRunApplyErrorAborts(t *testing.T) {
	in, _ := testStream(t, 40, 40)
	boom := errors.New("sink full")
	applied := 0
	_, err := Run(Config{
		Workers: 4,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply: func(seq int64, cert string) error {
			if seq == 10 {
				return boom
			}
			applied++
			return nil
		},
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if applied != 10 {
		t.Fatalf("applied %d records before abort, want 10", applied)
	}
}

// TestRunJoinsReaderOnApplyError: when Apply fails while the reader is
// inside a slow Source call, Run still waits for that call to return.
// indexd reads a request body through the Source, which it must not touch
// after its handler returns. Without the join the lone worker, parked
// with a built result when the applier stops, exits on the stop signal
// half the time and Run returns with the reader still in src.
func TestRunJoinsReaderOnApplyError(t *testing.T) {
	boom := errors.New("sink full")
	for i := 0; i < 20; i++ {
		applyFailed := make(chan struct{})
		var inSrc atomic.Bool
		calls := 0
		src := func() (string, int, bool, error) {
			calls++
			if calls <= 2 {
				return "A_", calls, true, nil
			}
			inSrc.Store(true)
			<-applyFailed
			time.Sleep(5 * time.Millisecond)
			inSrc.Store(false)
			return "", 0, false, nil
		}
		var builds atomic.Int32
		_, err := Run(Config{
			Workers: 1,
			Decode:  graph.FromGraph6,
			Canon: func(context.Context, *graph.Graph, *engine.Workspace, *obs.Recorder) (string, error) {
				if builds.Add(1) > 1 {
					<-applyFailed
					time.Sleep(time.Millisecond)
				}
				return "cert", nil
			},
			Apply: func(int64, string) error {
				close(applyFailed)
				return boom
			},
		}, src)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped sink error", err)
		}
		if inSrc.Load() {
			t.Fatalf("run %d: Run returned while the reader was inside the source", i)
		}
	}
}

func TestRunSourceErrorSurfaces(t *testing.T) {
	bad := errors.New("disk gone")
	n := 0
	src := func() (string, int, bool, error) {
		n++
		if n > 3 {
			return "", 0, false, bad
		}
		return "A_", n, true, nil
	}
	rep, err := Run(Config{
		Workers: 2,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply:   func(int64, string) error { return nil },
	}, src)
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped source error", err)
	}
	if rep.Applied != 3 {
		t.Fatalf("applied = %d, want 3 records before the source failed", rep.Applied)
	}
}

func TestSliceSource(t *testing.T) {
	src := SliceSource([]string{"a", "b"}, 10)
	for i, want := range []string{"a", "b"} {
		raw, line, ok, err := src()
		if err != nil || !ok || raw != want || line != 10+i {
			t.Fatalf("record %d: %q line=%d ok=%v err=%v", i, raw, line, ok, err)
		}
	}
	if _, _, ok, err := src(); ok || err != nil {
		t.Fatalf("EOF: ok=%v err=%v", ok, err)
	}
}

func TestEdgeListSource(t *testing.T) {
	in := "0 1\n1 2\n\n0 1\n"
	var ms []int
	_, err := Run(Config{
		Workers: 2,
		Decode: func(raw string) (*graph.Graph, error) {
			return graph.ReadEdgeList(strings.NewReader(raw))
		},
		Canon: canonFn,
		Apply: func(seq int64, cert string) error {
			ms = append(ms, len(cert))
			return nil
		},
	}, EdgeListSource(graph.NewEdgeListScanner(strings.NewReader(in))))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("applied %d edge-list records, want 2", len(ms))
	}
}

// TestRunRace hammers the pipeline under -race: many workers, a small
// queue, and an applier that also reads the report fields.
func TestRunRace(t *testing.T) {
	in, _ := testStream(t, 200, 11)
	rec := obs.New()
	var certs []string
	rep, err := Run(Config{
		Workers: 16,
		Queue:   2,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply: func(seq int64, cert string) error {
			certs = append(certs, cert)
			return nil
		},
		Obs: rec,
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 200 || len(certs) != 200 {
		t.Fatalf("applied = %d/%d", rep.Applied, len(certs))
	}
	uniq := map[string]bool{}
	for _, c := range certs {
		uniq[c] = true
	}
	if len(uniq) != 11 {
		t.Fatalf("distinct classes = %d, want 11", len(uniq))
	}
	if got := rec.Counter(obs.BulkRecords); got != 200 {
		t.Fatalf("bulk_records = %d", got)
	}
}

func ExampleRun() {
	// Three graphs, two isomorphism classes (the square appears twice,
	// relabeled).
	in := "Cr\nCl\nBw\n"
	classes := map[string]int64{}
	rep, _ := Run(Config{
		Workers: 2,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply: func(seq int64, cert string) error {
			classes[cert]++
			return nil
		},
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	fmt.Println(rep.Applied, len(classes))
	// Output: 3 2
}

// TestRunCanceledMidStream cancels the run context partway through and
// requires a prompt, leak-free abort with a typed error and a partial
// report.
func TestRunCanceledMidStream(t *testing.T) {
	in, _ := testStream(t, 200, 10)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := int64(0)
	rep, err := Run(Config{
		Ctx:     ctx,
		Workers: 8,
		Queue:   2,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply: func(seq int64, cert string) error {
			applied++
			if applied == 5 {
				cancel()
			}
			return nil
		},
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, engine.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled or context.Canceled", err)
	}
	if rep.Applied != applied || applied < 5 {
		t.Fatalf("report.Applied = %d, applier saw %d", rep.Applied, applied)
	}
	if rep.Applied >= 200 {
		t.Fatal("canceled run processed the whole stream")
	}
	// Run's contract: every worker has exited by return. Allow the
	// runtime a moment to reap the reader.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPreCanceled: a context canceled before Run starts yields an
// error and applies nothing.
func TestRunPreCanceled(t *testing.T) {
	in, _ := testStream(t, 20, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(Config{
		Ctx:     ctx,
		Workers: 4,
		Decode:  graph.FromGraph6,
		Canon:   canonFn,
		Apply:   func(int64, string) error { return nil },
	}, ScannerSource(graph.NewGraph6Scanner(strings.NewReader(in))))
	if err == nil {
		t.Fatal("pre-canceled run returned nil error")
	}
	if rep.Applied != 0 {
		t.Fatalf("pre-canceled run applied %d records", rep.Applied)
	}
}

// TestRunCancelBetweenRecordsIsErrCanceled: a cancel that lands while
// the pipeline is idle, waiting on its source, surfaces as
// engine.ErrCanceled like a cancel during a build. The reader may notice
// it before the next record reaches a worker, so half the runs end on the
// reader's path.
func TestRunCancelBetweenRecordsIsErrCanceled(t *testing.T) {
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		applied := make(chan struct{})
		calls := 0
		src := func() (string, int, bool, error) {
			calls++
			switch calls {
			case 1:
				return "A_", 1, true, nil
			case 2:
				<-applied
				cancel()
				return "A_", 2, true, nil
			}
			return "", 0, false, nil
		}
		_, err := Run(Config{
			Ctx:     ctx,
			Workers: 1,
			Decode:  graph.FromGraph6,
			Canon: func(context.Context, *graph.Graph, *engine.Workspace, *obs.Recorder) (string, error) {
				return "cert", nil
			},
			Apply: func(seq int64, _ string) error {
				if seq == 0 {
					close(applied)
				}
				return nil
			},
		}, src)
		cancel()
		if !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("run %d: err = %v, want engine.ErrCanceled", i, err)
		}
	}
}
