package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"dvicl"
	"dvicl/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload:
// what a caller of the system sees. Every one is non-zero on every
// workload, as the regression check divides by the parent's median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload does not run reads 0. "Per op" divides by the
// workload's operations (certificates, records, requests, queries);
// counts without a suffix are per pass (see README).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.decode_us_per_op", "us"},
		{"core.build_ms_per_op", "ms"},
		{"core.phase.refine_ms_per_op", "ms"},
		{"core.phase.twins_ms_per_op", "ms"},
		{"core.phase.divide_i_ms_per_op", "ms"},
		{"core.phase.divide_s_ms_per_op", "ms"},
		{"core.phase.combine_cl_ms_per_op", "ms"},
		{"core.phase.combine_st_ms_per_op", "ms"},
		{"core.combine_cl_share", "ratio"},
		{"core.divide_i_calls_per_op", "count"},
		{"core.divide_s_calls_per_op", "count"},
		{"core.leaf_searches_per_op", "count"},
		{"core.twin_verts_collapsed_per_op", "count"},
		{"core.sched.utilization", "ratio"},
		{"core.sched.steals_per_op", "count"},
		{"coloring.refine_rounds_per_op", "count"},
		{"coloring.cell_splits_per_op", "count"},
		{"canon.search_nodes_per_op", "count"},
		{"canon.search_leaves_per_op", "count"},
		{"canon.prune_ratio", "ratio"},
		{"canon.automorphisms_per_op", "count"},
	}
	for _, b := range fullConfig().hc.bases {
		defs = append(defs, metricDef{"canon.search_nodes." + b.name, "count"})
	}
	return append(defs, []metricDef{
		{"pipeline.wait_ms_per_op", "ms"},
		{"index.add_cert_us_per_op", "us"},
		{"index.cert_cache_hit_ratio", "ratio"},
		{"index.dup_ratio", "ratio"},
		{"index.open_ms", "ms"},
		{"index.close_ms", "ms"},
		{"index.first_answer_ms", "ms"},
		{"store.wal_append_us", "us"},
		{"store.wal_appends", "count"},
		{"store.snapshots_written", "count"},
		{"store.snapshot_ms", "ms"},
		{"store.disk_bytes_per_graph", "bytes"},
		{"treestore.mem_hit_ratio", "ratio"},
		{"treestore.disk_hits", "count"},
		{"treestore.load_ms_per_hit", "ms"},
		{"treestore.evictions", "count"},
		{"treestore.rebuilds", "count"},
		{"treestore.persist_ms", "ms"},
		{"treestore.persist_dropped", "count"},
		{"symquery.orbits_us", "us"},
		{"symquery.autgroup_us", "us"},
		{"symquery.ssm_us", "us"},
		{"ssm.leaf_candidates_per_query", "count"},
		{"ssm.leaf_pruned_ratio", "ratio"},
		{"indexd.server_ms_per_req", "ms"},
		{"indexd.client_ms_per_req", "ms"},
		{"indexd.build_ms_per_add", "ms"},
		{"indexd.open_p99_ms", "ms"},
		{"indexd.add_tail_ms", "ms"},
		{"indexd.lookup_tail_ms", "ms"},
		{"indexd.orbits_tail_ms", "ms"},
		{"indexd.ssm_tail_ms", "ms"},
		{"loadgen.queue_ms_per_req", "ms"},
		{"loadgen.lag_p99_ms", "ms"},
		{"trace.unattributed_ms_per_op", "ms"},
		{"trace.unattributed_share", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

// counts is the program's own accounting over one measured section: its
// counters and phase-timer totals, read from an in-process recorder or
// scraped from indexd's /metrics, as a difference of two readings.
type counts struct {
	c       map[string]float64 // counter name -> value
	phaseNs map[string]float64 // phase name -> summed duration
	phaseN  map[string]float64 // phase name -> observations
}

func newCounts() counts {
	return counts{c: map[string]float64{}, phaseNs: map[string]float64{}, phaseN: map[string]float64{}}
}

func countsOf(s dvicl.MetricsSnapshot) counts {
	k := newCounts()
	for name, v := range s.Counters {
		k.c[name] = float64(v)
	}
	for name, p := range s.Phases {
		k.phaseNs[name] = float64(p.TotalNs)
		k.phaseN[name] = float64(p.Count)
	}
	return k
}

// parseProm reads the counters and phase histogram sums of indexd's
// Prometheus exposition.
func parseProm(r io.Reader) (counts, error) {
	k := newCounts()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		const ns, hist = "dvicl_", "dvicl_phase_duration_seconds_"
		switch {
		case strings.HasPrefix(name, hist+"sum{phase=\""):
			k.phaseNs[strings.TrimSuffix(name[len(hist+"sum{phase=\""):], "\"}")] = v * 1e9
		case strings.HasPrefix(name, hist+"count{phase=\""):
			k.phaseN[strings.TrimSuffix(name[len(hist+"count{phase=\""):], "\"}")] = v
		case strings.HasPrefix(name, ns) && strings.HasSuffix(name, "_total"):
			k.c[strings.TrimSuffix(name[len(ns):], "_total")] = v
		}
	}
	return k, sc.Err()
}

// minus returns k − before, field by field.
func (k counts) minus(before counts) counts {
	d := newCounts()
	for name, v := range k.c {
		d.c[name] = v - before.c[name]
	}
	for name, v := range k.phaseNs {
		d.phaseNs[name] = v - before.phaseNs[name]
	}
	for name, v := range k.phaseN {
		d.phaseN[name] = v - before.phaseN[name]
	}
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// programMetrics derives the per-layer metrics that come from the
// program's own counters and phase timers, over ops operations and
// passes passes, in which newClasses new classes were indexed. workers is
// the build pool width (utilization's base).
func programMetrics(m map[string]float64, k counts, ops, passes, newClasses float64, workers int) {
	c, ph := k.c, k.phaseNs
	// The algorithm phases' share is taken of their sum, not of the build
	// phase: with two workers both run leaf searches at once, so phase
	// totals are busy time and can exceed the build's wall time.
	var algo float64
	for _, p := range []string{"refine", "twins", "divide_i", "divide_s", "combine_cl", "combine_st"} {
		m["core.phase."+p+"_ms_per_op"] = ratio(ph[p]/1e6, ops)
		algo += ph[p]
	}
	m["core.combine_cl_share"] = ratio(ph["combine_cl"], algo)
	for _, n := range []string{"divide_i_calls", "divide_s_calls", "leaf_searches", "twin_verts_collapsed"} {
		m["core."+n+"_per_op"] = ratio(c[n], ops)
	}
	if workers > 1 {
		m["core.sched.utilization"] = ratio(ph["worker_busy"], ph["build"]*float64(workers))
	}
	m["core.sched.steals_per_op"] = ratio(c["sched_steals"], ops)
	m["coloring.refine_rounds_per_op"] = ratio(c["refine_rounds"], ops)
	m["coloring.cell_splits_per_op"] = ratio(c["cell_splits"], ops)
	m["canon.search_nodes_per_op"] = ratio(c["search_nodes"], ops)
	m["canon.search_leaves_per_op"] = ratio(c["search_leaves"], ops)
	m["canon.prune_ratio"] = ratio(c["prune_first_path"]+c["prune_best_path"]+c["prune_orbit"], c["search_nodes"])
	m["canon.automorphisms_per_op"] = ratio(c["automorphisms"], ops)

	m["index.cert_cache_hit_ratio"] = ratio(c["cert_cache_hits"], c["cert_cache_hits"]+c["cert_cache_misses"])
	m["index.dup_ratio"] = ratio(c["index_add_duplicate"], c["index_adds"])
	m["store.wal_append_us"] = ratio(ph["wal_append"]/1e3, k.phaseN["wal_append"])
	m["store.wal_appends"] = ratio(c["wal_appends"], passes)
	m["store.snapshots_written"] = ratio(c["snapshots_written"], passes)
	m["store.snapshot_ms"] = ratio(ph["snapshot"]/1e6, k.phaseN["snapshot"])

	gets := c["treestore_mem_hits"] + c["treestore_disk_hits"] + c["tree_rebuilds"]
	m["treestore.mem_hit_ratio"] = ratio(c["treestore_mem_hits"], gets)
	m["treestore.disk_hits"] = ratio(c["treestore_disk_hits"], passes)
	m["treestore.load_ms_per_hit"] = ratio(ph["treestore_load"]/1e6, c["treestore_disk_hits"])
	m["treestore.evictions"] = ratio(c["treestore_evictions"], passes)
	// A new class's write-behind persist builds its tree once; only the
	// rebuilds beyond those are a cache failing to serve a read.
	m["treestore.rebuilds"] = ratio(c["tree_rebuilds"]-newClasses+c["treestore_persist_dropped"], passes)
	m["treestore.persist_ms"] = ratio(ph["treestore_persist"]/1e6, k.phaseN["treestore_persist"])
	m["treestore.persist_dropped"] = ratio(c["treestore_persist_dropped"], passes)

	m["ssm.leaf_candidates_per_query"] = ratio(c["ssm_leaf_candidates"], c["ssm_queries"])
	m["ssm.leaf_pruned_ratio"] = ratio(c["ssm_leaf_pruned"], c["ssm_leaf_candidates"])
}

// deterministic keeps the counters that must repeat exactly between two
// traced runs of one seed: all but the scheduler's, which vary with OS
// timing (obs.SchedulerCounter), and two that depend on when write-behind
// tree persists run: the drop count, and the evictions their inserts into
// the tree cache cause.
func deterministic(c map[string]float64) map[string]int64 {
	skip := map[string]bool{
		obs.TreeStorePersistDropped.String(): true,
		obs.TreeStoreEvictions.String():      true,
	}
	for _, sc := range obs.AllCounters() {
		if obs.SchedulerCounter(sc) {
			skip[sc.String()] = true
		}
	}
	out := make(map[string]int64, len(c))
	for name, v := range c {
		if !skip[name] {
			out[name] = int64(v)
		}
	}
	return out
}
