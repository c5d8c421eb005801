package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"dvicl"
	"dvicl/internal/obs"
)

// runHardCanon measures certificates of hard graphs in arbitrary
// labelings: one caller, closed loop, graph6 in, certificate out through
// dvicl.FromGraph6 and dvicl.CanonicalCertCtx with a two-worker build.
// Leaf search (CombineCL) does nearly all the work; ingest, store and
// HTTP do none.
func runHardCanon(rc *runCtx) error {
	cfg := rc.cfg.hc
	in, err := genHardCanon(cfg, rc.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	build := func(op hcOp, rec *obs.Recorder) ([]byte, error) {
		g, err := dvicl.FromGraph6(op.g6)
		if err != nil {
			return nil, err
		}
		return dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{Workers: cfg.workers, Obs: rec})
	}

	// Reference certificates: each base in its own labeling, built
	// sequentially — the relabeled inputs, built in parallel, must match.
	refs := make([][]byte, len(in.bases))
	err = rc.setup(func() (func(), error) {
		for i, b := range in.bases {
			c, err := dvicl.CanonicalCertCtx(ctx, b.g, nil, dvicl.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			refs[i] = c
		}
		if bytes.Equal(refs[baseIndex(in, "cfi")], refs[baseIndex(in, "cfi-twisted")]) {
			return nil, fmt.Errorf("cfi and its twisted twin share a certificate")
		}
		// Warm-up: each base once, through the measured path, in its own
		// labeling, so set-up is the same work on every seed (a relabeling's
		// cost depends on the labeling). Its recorder checks for truncated
		// leaf searches, which untraced passes, run without one, cannot see.
		wrec := dvicl.NewMetricsRecorder()
		for i, b := range in.bases {
			if _, err := build(hcOp{base: i, g6: encodeGraph6(b.g, nil)}, wrec); err != nil {
				return nil, err
			}
		}
		rc.checks["truncations"] += wrec.Counter(obs.Truncations)
		return nil, nil
	})
	if err != nil {
		return err
	}
	if rc.cfg.corruptRef {
		refs[0][len(refs[0])-1] ^= 1
	}

	// Traced passes give every op its own recorder, so search-tree sizes
	// are charged to the op's base.
	total := dvicl.NewMetricsRecorder()
	opRec := dvicl.NewMetricsRecorder()
	baseNodes := make([]float64, len(in.bases))
	baseOps := make([]float64, len(in.bases))
	var refPass dvicl.MetricsSnapshot
	lat := make([]float64, 0, 2*rc.cfg.minOps)
	var opID int32

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rates, ops, err := rc.passes(func(k int, traced bool) (int, time.Duration, error) {
		start := time.Now()
		tr, rec := rc.tr, opRec
		if !traced {
			tr, rec = nil, nil
		}
		for _, op := range in.pass {
			t0 := time.Now()
			a := tr.now()
			g, err := dvicl.FromGraph6(op.g6)
			if err != nil {
				return 0, 0, err
			}
			b := tr.now()
			cert, err := dvicl.CanonicalCertCtx(ctx, g, nil, dvicl.Options{Workers: cfg.workers, Obs: rec})
			if err != nil {
				return 0, 0, err
			}
			d := time.Since(t0)
			c := tr.now()
			if !rc.traced {
				lat = append(lat, float64(d)/1e6)
			}
			tr.record(opID, a, c, part{layerGraph, a, b}, part{layerCore, b, c})
			opID++
			rc.attempted++
			if !bytes.Equal(cert, refs[op.base]) {
				rc.fail("%s: certificate differs from the base's own", in.bases[op.base].name)
			}
			if rec != nil {
				baseNodes[op.base] += float64(rec.Counter(obs.SearchNodes))
				baseOps[op.base]++
				rc.checks["truncations"] += rec.Counter(obs.Truncations)
				total.Merge(rec)
				rec.Reset()
			}
		}
		if traced && refPass.Counters == nil {
			refPass = total.Snapshot()
		}
		return len(in.pass), time.Since(start), nil
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
	programMetrics(rc.m, countsOf(total.Snapshot()), n, float64(len(rates)), 0, cfg.workers)
	for i, b := range in.bases {
		rc.m["canon.search_nodes."+b.name] = ratio(baseNodes[i], baseOps[i])
	}
	rc.counters = deterministic(countsOf(refPass).c)
	return nil
}

func baseIndex(in *hardCanonInput, name string) int {
	for i, b := range in.bases {
		if b.name == name {
			return i
		}
	}
	panic("hard-canon: no base " + name)
}
