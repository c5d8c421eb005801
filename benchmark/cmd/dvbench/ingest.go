package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"dvicl"
	"dvicl/internal/obs"
	"dvicl/internal/pipeline"
)

// runIngest measures the write path: a batch of graph6 social stand-ins
// through pipeline.Run (two workers) into a durable GraphIndex with the
// tree store on, applied with AddCertCtx. Each pass ingests the whole
// batch into a fresh index, so the new/duplicate mix, the compactions and
// the write-behind tree persists are the same in every pass.
func runIngest(rc *runCtx) error {
	cfg := rc.cfg.si
	in := genIngest(cfg, rc.seed)
	ctx := context.Background()
	want := in.dup
	if rc.cfg.corruptRef {
		want = append([]bool(nil), want...)
		want[len(want)-1] = !want[len(want)-1]
	}

	// ingest runs one batch into a fresh index under dir and closes it,
	// checking each record's duplicate flag against wantDup. With tr
	// non-nil it records each record's spans; lat, when non-nil, receives
	// each record's latency from read to applied.
	type stamps struct{ decStart, decEnd, canonStart, canonEnd int64 }
	st := make([]stamps, len(in.records))
	readAt := make([]time.Time, len(in.records))
	seqOf := make(map[*byte]int, len(in.records)) // record bytes -> sequence number
	for i, s := range in.records {
		seqOf[unsafe.StringData(s)] = i
	}
	var opID int32
	ingest := func(dir string, records []string, wantDup []bool, tr *tracer, rec *dvicl.MetricsRecorder, lat *[]float64) (open, closeD time.Duration, err error) {
		t0 := time.Now()
		ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{
			DviCL:        dvicl.Options{Obs: rec},
			CompactEvery: cfg.compactEvery,
			TreeStore:    &dvicl.TreeStoreOptions{MemBudget: cfg.treeMem},
		})
		if err != nil {
			return 0, 0, err
		}
		open = time.Since(t0)
		next := pipeline.SliceSource(records, 1)
		seq := 0
		source := func() (string, int, bool, error) {
			raw, line, ok, err := next()
			if ok {
				readAt[seq] = time.Now()
				seq++
			}
			return raw, line, ok, err
		}
		// Traced passes pass each record's sequence number from decode to
		// build through this map, keyed by the decoded graph.
		var mu sync.Mutex
		seqOfGraph := map[*dvicl.Graph]int{}
		decode := dvicl.FromGraph6
		if tr != nil {
			decode = func(raw string) (*dvicl.Graph, error) {
				i := seqOf[unsafe.StringData(raw)]
				st[i].decStart = tr.now()
				g, err := dvicl.FromGraph6(raw)
				st[i].decEnd = tr.now()
				mu.Lock()
				seqOfGraph[g] = i
				mu.Unlock()
				return g, err
			}
		}
		_, runErr := pipeline.Run(pipeline.Config{
			Workers: cfg.workers,
			Decode:  decode,
			Canon: func(ctx context.Context, g *dvicl.Graph, ws *dvicl.Workspace, wrec *dvicl.MetricsRecorder) (string, error) {
				i := -1
				if tr != nil {
					mu.Lock()
					i = seqOfGraph[g]
					delete(seqOfGraph, g)
					mu.Unlock()
					st[i].canonStart = tr.now()
				}
				cert, err := dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{Obs: wrec, Workspace: ws})
				if i >= 0 {
					st[i].canonEnd = tr.now()
				}
				return string(cert), err
			},
			Apply: func(seq int64, cert string) error {
				a := tr.now()
				_, dup, err := ix.AddCertCtx(ctx, cert)
				if err != nil {
					return err
				}
				if lat != nil {
					*lat = append(*lat, float64(time.Since(readAt[seq]))/1e6)
				}
				if tr != nil {
					b, s, r0 := tr.now(), st[seq], tr.at(readAt[seq])
					tr.record(opID, r0, b,
						part{layerPipeline, r0, s.decStart},
						part{layerGraph, s.decStart, s.decEnd},
						part{layerCore, s.canonStart, s.canonEnd},
						part{layerPipeline, s.canonEnd, a},
						part{layerIndex, a, b})
					opID++
				}
				rc.attempted++
				if dup != wantDup[seq] {
					rc.fail("record %d: duplicate=%v, want %v", seq, dup, wantDup[seq])
				}
				return nil
			},
			Obs: rec,
		}, source)
		t1 := time.Now()
		if err := ix.Close(); err != nil && runErr == nil {
			runErr = err
		}
		return open, time.Since(t1), runErr
	}

	// Set-up is a warm-up batch. Its recorder checks for truncated leaf
	// searches, which untraced passes, run without one, cannot see.
	err := rc.setup(func() (func(), error) {
		dir := filepath.Join(rc.work, "warm")
		wrec := dvicl.NewMetricsRecorder()
		_, _, err := ingest(dir, in.warm, make([]bool, len(in.warm)), nil, wrec, nil)
		rc.checks["truncations"] += wrec.Counter(obs.Truncations)
		return nil, errors.Join(err, os.RemoveAll(dir))
	})
	if err != nil {
		return err
	}

	rec := dvicl.NewMetricsRecorder()
	var refPass dvicl.MetricsSnapshot
	var lat []float64
	var opens, closes, diskPerGraph []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rates, ops, err := rc.passes(func(k int, traced bool) (int, time.Duration, error) {
		dir := filepath.Join(rc.work, fmt.Sprintf("pass-%d", k))
		defer os.RemoveAll(dir)
		tr, r, l := rc.tr, rec, (*[]float64)(nil)
		if !traced {
			tr, r = nil, nil
		}
		if !rc.traced {
			l = &lat
		}
		t0 := time.Now()
		open, cl, err := ingest(dir, in.records, want, tr, r, l)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if traced {
			b, err := dirBytes(dir)
			if err != nil {
				return 0, 0, err
			}
			opens = append(opens, float64(open)/1e6)
			closes = append(closes, float64(cl)/1e6)
			diskPerGraph = append(diskPerGraph, float64(b)/float64(len(in.records)))
			if refPass.Counters == nil {
				refPass = rec.Snapshot()
			}
		}
		return len(in.records), d, nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)

	if !rc.traced {
		rc.m["ops_per_s"] = median(rates)
		rc.m["alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(lat))
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		rc.m["peak_rss_mb"] = rss
		return rc.latencies(lat)
	}

	n := float64(ops)
	self := rc.selfTimeMetrics(n)
	rc.m["graph.decode_us_per_op"] = float64(self[layerGraph]) / 1e3 / n
	rc.m["core.build_ms_per_op"] = float64(self[layerCore]) / 1e6 / n
	rc.m["pipeline.wait_ms_per_op"] = float64(self[layerPipeline]) / 1e6 / n
	rc.m["index.add_cert_us_per_op"] = float64(self[layerIndex]) / 1e3 / n
	rc.m["index.open_ms"] = median(opens)
	rc.m["index.close_ms"] = median(closes)
	rc.m["store.disk_bytes_per_graph"] = median(diskPerGraph)
	k := countsOf(rec.Snapshot())
	programMetrics(rc.m, k, n, float64(len(rates)), float64(in.classes*len(rates)), 1)
	rc.checks["truncations"] += int64(k.c["truncations"])
	rc.counters = deterministic(countsOf(refPass).c)
	return nil
}
