package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dvicl"
	"dvicl/internal/obs"
)

// runSymq measures symmetry queries on a cold store: repeated restarts,
// each opening a prebuilt durable index whose tree cache holds a quarter
// of the stored trees, answering Zipf-distributed OrbitsCtx, AutGroupCtx
// and SSMCtx calls from one caller, and closing it. Tree-store disk
// loads, decodes and evictions, and index open, do the work; nothing is
// built.
func runSymq(rc *runCtx) error {
	cfg := rc.cfg.sq
	in, err := genSymq(cfg, rc.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	refs := make([]symRef, len(in.graphs))
	var dir string
	var budget int64
	setupN := 0

	cycleID := int32(0)
	kindNs := make([]float64, numReqKinds)
	kindN := make([]float64, numReqKinds)
	var firsts, opens, closes []float64
	// cycle runs one restart: open, the queries, close. It returns the
	// time from open to closed, and checks the answers after that.
	cycle := func(qs []symQuery, tr *tracer, rec *dvicl.MetricsRecorder, lat *[]float64) (time.Duration, error) {
		answers := make([]symAnswer, len(qs))
		parts := make([]part, 0, len(qs)+2)
		t0, a0 := time.Now(), tr.now()
		ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{
			DviCL:     dvicl.Options{Obs: rec},
			TreeStore: &dvicl.TreeStoreOptions{MemBudget: budget},
		})
		if err != nil {
			return 0, err
		}
		a1 := tr.now()
		open := time.Since(t0)
		parts = append(parts, part{layerIndex, a0, a1})
		var first time.Duration
		for i, q := range qs {
			s0, b0 := time.Now(), tr.now()
			a := &answers[i]
			switch q.kind {
			case reqOrbits:
				a.orbits, err = ix.OrbitsCtx(ctx, q.class)
			case reqAutGroup:
				a.order, _, err = ix.AutGroupCtx(ctx, q.class)
			case reqSSM:
				var images [][]int
				a.count, images, err = ix.SSMCtx(ctx, q.class, in.patterns[q.class][q.pattern], ssmLimit)
				a.images = len(images)
			}
			d, b1 := time.Since(s0), tr.now()
			if err != nil {
				ix.Close()
				return 0, err
			}
			if i == 0 {
				first = time.Since(t0)
			}
			if lat != nil {
				*lat = append(*lat, float64(d)/1e6)
			}
			if tr != nil {
				parts = append(parts, part{layerSymquery, b0, b1})
				kindNs[q.kind] += float64(b1 - b0)
				kindN[q.kind]++
			}
		}
		c0, t2 := tr.now(), time.Now()
		if err := ix.Close(); err != nil {
			return 0, err
		}
		total, closeD, c1 := time.Since(t0), time.Since(t2), tr.now()
		if tr != nil {
			parts = append(parts, part{layerIndex, c0, c1})
			tr.record(cycleID, a0, c1, parts...)
			cycleID++
			firsts = append(firsts, float64(first)/1e6)
			opens = append(opens, float64(open)/1e6)
			closes = append(closes, float64(closeD)/1e6)
		}
		for i, q := range qs {
			rc.attempted++
			if msg := checkSym(q.kind, q.pattern, &answers[i], &refs[q.class]); msg != "" {
				rc.fail("class %d: %s", q.class, msg)
			}
		}
		return total, nil
	}

	err = rc.setup(func() (func(), error) {
		for i, g := range in.graphs {
			refs[i] = refOf(g, in.patterns[i])
		}
		// The store: every graph added (each its own class, id = index),
		// then closed, which waits for every tree to be persisted. Its
		// recorder checks the builds for truncated leaf searches.
		setupN++
		dir = filepath.Join(rc.work, fmt.Sprintf("store-%d", setupN))
		release := func() { os.RemoveAll(dir) }
		brec := dvicl.NewMetricsRecorder()
		ix, err := dvicl.OpenGraphIndex(dir, dvicl.IndexOptions{
			DviCL:     dvicl.Options{Obs: brec},
			TreeStore: &dvicl.TreeStoreOptions{},
		})
		if err != nil {
			return nil, err
		}
		for i, g := range in.graphs {
			id, dup, err := ix.AddCtx(ctx, g)
			if err != nil || id != i || dup {
				ix.Close()
				release()
				return nil, fmt.Errorf("store: add %d: id %d duplicate %v: %v", i, id, dup, err)
			}
		}
		if err := ix.Close(); err != nil {
			release()
			return nil, err
		}
		rc.checks["truncations"] += brec.Counter(obs.Truncations)
		treeBytes, err := dirBytes(filepath.Join(dir, "trees"))
		if err != nil {
			release()
			return nil, err
		}
		budget = int64(float64(treeBytes) * cfg.budgetShare)
		// Warm-up: one restart cycle, so code paths and pools are primed.
		// Its recorder checks that queries never rebuild a tree, which the
		// untraced passes, run without one, cannot see.
		wrec := dvicl.NewMetricsRecorder()
		if _, err := cycle(in.cycles[0], nil, wrec, nil); err != nil {
			release()
			return nil, err
		}
		rc.checks["tree_rebuilds"] += wrec.Counter(obs.TreeRebuilds)
		return release, nil
	})
	if err != nil {
		return err
	}
	if rc.cfg.corruptRef {
		refs[in.cycles[0][0].class].order += "0"
		refs[in.cycles[0][0].class].orbits = nil
	}

	rec := dvicl.NewMetricsRecorder()
	var refPass dvicl.MetricsSnapshot
	var lat []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rates, ops, err := rc.passes(func(k int, traced bool) (int, time.Duration, error) {
		tr, r, l := rc.tr, rec, (*[]float64)(nil)
		if !traced {
			tr, r = nil, nil
		}
		if !rc.traced {
			l = &lat
		}
		var d time.Duration
		n := 0
		for _, qs := range in.cycles {
			cd, err := cycle(qs, tr, r, l)
			if err != nil {
				return 0, 0, err
			}
			d += cd
			n += len(qs)
		}
		if traced && refPass.Counters == nil {
			refPass = rec.Snapshot()
		}
		return n, d, nil
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
	rc.selfTimeMetrics(n)
	k := countsOf(rec.Snapshot())
	programMetrics(rc.m, k, n, float64(len(rates)), 0, 0)
	rc.checks["tree_rebuilds"] += int64(k.c[obs.TreeRebuilds.String()])
	rc.checks["truncations"] += int64(k.c[obs.Truncations.String()])
	rc.m["index.open_ms"] = median(opens)
	rc.m["index.close_ms"] = median(closes)
	rc.m["index.first_answer_ms"] = median(firsts)
	rc.m["symquery.orbits_us"] = ratio(kindNs[reqOrbits]/1e3, kindN[reqOrbits])
	rc.m["symquery.autgroup_us"] = ratio(kindNs[reqAutGroup]/1e3, kindN[reqAutGroup])
	rc.m["symquery.ssm_us"] = ratio(kindNs[reqSSM]/1e3, kindN[reqSSM])
	rc.counters = deterministic(countsOf(refPass).c)
	return nil
}
