package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dvicl/internal/canon"
	"dvicl/internal/clique"
	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/im"
	"dvicl/internal/obs"
	"dvicl/internal/ssm"
)

// Table1 regenerates the real-graph summary (paper Table 1): sizes,
// degrees, and the orbit-coloring cell counts, side by side with the
// paper's reported values for the full-size originals.
func Table1(cfg Config) Table {
	t := Table{
		Title: fmt.Sprintf("Table 1: real-graph stand-ins at 1/%d scale (paper values for the full-size originals in parentheses)", cfg.Scale),
		Header: []string{"Graph", "|V|", "|E|", "dmax", "davg", "cells", "singleton",
			"paper |V|", "paper cells/|V|", "ours cells/|V|"},
	}
	for _, d := range gen.RealDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(cfg.Scale)
		tree := core.Build(g, nil, core.Options{})
		cells, singles := tree.OrbitStats()
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprint(g.N()), fmt.Sprint(g.M()),
			fmt.Sprint(g.MaxDegree()), fmt.Sprintf("%.2f", g.AvgDegree()),
			fmt.Sprint(cells), fmt.Sprint(singles),
			fmt.Sprint(d.Paper.N),
			fmt.Sprintf("%.2f", float64(d.Paper.Cells)/float64(d.Paper.N)),
			fmt.Sprintf("%.2f", float64(cells)/float64(g.N())),
		})
	}
	return t
}

// buildWithin runs DviCL+pol on g under a whole-run timeout, the stand-in
// for the paper's two-hour limit. It returns nil when the build runs out
// of time.
func buildWithin(g *graph.Graph, pol canon.Policy, timeout time.Duration, rec *obs.Recorder) *core.Tree {
	tree, err := core.BuildCtx(context.Background(), g, nil, core.Options{
		LeafPolicy: pol, Budget: engine.Budget{BuildTimeout: timeout}, Obs: rec})
	if !finished(err) {
		return nil
	}
	return tree
}

// finished reports whether a run under a timeout completed: false when
// it ran out of time. Any other error is a bug, as in core.Build.
func finished(err error) bool {
	if errors.Is(err, engine.ErrBudgetExceeded) {
		return false
	}
	if err != nil {
		panic(err)
	}
	return true
}

// Table2 regenerates the benchmark-graph summary (paper Table 2). Its
// builds use traces-policy leaves, the one policy that finishes every
// benchmark family (Table 8); a build that runs out of time prints "-"
// for the orbit columns.
func Table2(cfg Config) Table {
	t := Table{
		Title:  "Table 2: benchmark graphs (paper values in the trailing columns)",
		Header: []string{"Graph", "|V|", "|E|", "dmax", "davg", "cells", "singleton", "paper |V|", "paper |E|", "paper cells"},
	}
	for _, d := range gen.BenchmarkDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(1)
		cells, singles := "-", "-"
		if tree := buildWithin(g, canon.PolicyTraces, cfg.Timeout, nil); tree != nil {
			c, s := tree.OrbitStats()
			cells, singles = fmt.Sprint(c), fmt.Sprint(s)
		}
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprint(g.N()), fmt.Sprint(g.M()),
			fmt.Sprint(g.MaxDegree()), fmt.Sprintf("%.2f", g.AvgDegree()),
			cells, singles,
			fmt.Sprint(d.Paper.N), fmt.Sprint(d.Paper.M), fmt.Sprint(d.Paper.Cells),
		})
	}
	return t
}

func autotreeRow(name string, tree *core.Tree) []string {
	s := tree.Stats()
	return []string{
		name,
		fmt.Sprint(s.Nodes),
		fmt.Sprint(s.SingletonLeaves),
		fmt.Sprint(s.NonSingletonLeaves),
		fmt.Sprintf("%.2f", s.AvgLeafSize),
		fmt.Sprint(s.Depth),
	}
}

// Table3 regenerates the AutoTree structure of the real-graph stand-ins
// (paper Table 3).
func Table3(cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("Table 3: AutoTree structure, real-graph stand-ins at 1/%d scale", cfg.Scale),
		Header: []string{"Graph", "|V(AT)|", "singleton", "non-singleton", "avg size", "depth"},
	}
	for _, d := range gen.RealDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(cfg.Scale)
		rec := obs.New()
		tree := core.Build(g, nil, core.Options{Obs: rec})
		t.Rows = append(t.Rows, autotreeRow(d.Name, tree))
		t.Snapshots = append(t.Snapshots, map[string]obs.Snapshot{"dvicl": rec.Snapshot()})
	}
	return t
}

// Table4 regenerates the AutoTree structure of the benchmark graphs
// (paper Table 4), built as in Table2; a build that runs out of time
// prints "-" for every column.
func Table4(cfg Config) Table {
	t := Table{
		Title:  "Table 4: AutoTree structure, benchmark graphs",
		Header: []string{"Graph", "|V(AT)|", "singleton", "non-singleton", "avg size", "depth"},
	}
	for _, d := range gen.BenchmarkDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(1)
		rec := obs.New()
		row := []string{d.Name, "-", "-", "-", "-", "-"}
		if tree := buildWithin(g, canon.PolicyTraces, cfg.Timeout, rec); tree != nil {
			row = autotreeRow(d.Name, tree)
		}
		t.Rows = append(t.Rows, row)
		t.Snapshots = append(t.Snapshots, map[string]obs.Snapshot{"dvicl": rec.Snapshot()})
	}
	return t
}

// policies is the X lineup of Tables 5 and 8.
var policies = []canon.Policy{canon.PolicyNauty, canon.PolicyTraces, canon.PolicyBliss}

// runComparison measures X and DviCL+X for every policy on one graph,
// each run under a whole-run timeout: a run that exceeds it prints "-".
// Each run records into a fresh obs recorder; the snapshots are returned
// keyed by run label so comparison tables carry search-effort counters
// next to wall times.
func runComparison(g *graph.Graph, timeout time.Duration) ([]string, map[string]obs.Snapshot) {
	var cells []string
	snaps := make(map[string]obs.Snapshot, 2*len(policies))
	timed := func(label string, run func(rec *obs.Recorder) bool) {
		rec := obs.New()
		m := Measure(func() bool { return run(rec) })
		snaps[label] = rec.Snapshot()
		if m.TimedOut {
			cells = append(cells, "-", "-")
		} else {
			cells = append(cells, fmtDur(m.Time), fmtMB(m.PeakMB))
		}
	}
	for _, pol := range policies {
		timed(pol.String(), func(rec *obs.Recorder) bool {
			ctl := engine.NewCtl(context.Background(), engine.Budget{BuildTimeout: timeout})
			_, err := canon.CanonicalCtl(ctl, nil, g, nil, canon.Options{Policy: pol, Obs: rec})
			return finished(err)
		})
		timed("dvicl+"+pol.String(), func(rec *obs.Recorder) bool {
			return buildWithin(g, pol, timeout, rec) != nil
		})
	}
	return cells, snaps
}

func comparisonHeader() []string {
	h := []string{"Graph"}
	for _, pol := range policies {
		h = append(h,
			pol.String()+" t", pol.String()+" MB",
			"DviCL+"+pol.String()[:1]+" t", "DviCL+"+pol.String()[:1]+" MB")
	}
	return h
}

// Table5 regenerates the six-algorithm time/memory comparison on the
// real-graph stand-ins (paper Table 5). "-" marks a timeout, like the
// paper's two-hour limit.
func Table5(cfg Config) Table {
	t := Table{
		Title: fmt.Sprintf("Table 5: X vs DviCL+X on real-graph stand-ins (1/%d scale, %v timeout; seconds / MiB)",
			cfg.Scale, cfg.Timeout),
		Header: comparisonHeader(),
	}
	for _, d := range gen.RealDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(cfg.Scale)
		cells, snaps := runComparison(g, cfg.Timeout)
		t.Rows = append(t.Rows, append([]string{d.Name}, cells...))
		t.Snapshots = append(t.Snapshots, snaps)
	}
	return t
}

// Table8 regenerates the comparison on the benchmark graphs (paper
// Table 8; the paper reports time only, we add memory for free).
func Table8(cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("Table 8: X vs DviCL+X on benchmark graphs (%v timeout; seconds / MiB)", cfg.Timeout),
		Header: comparisonHeader(),
	}
	for _, d := range gen.BenchmarkDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(1)
		cells, snaps := runComparison(g, cfg.Timeout)
		t.Rows = append(t.Rows, append([]string{d.Name}, cells...))
		t.Snapshots = append(t.Snapshots, snaps)
	}
	return t
}

// Table6 regenerates the SSM-on-IM-seeds experiment (paper Table 6): for
// seed sets of size 10 and 100 found by the PMC-style greedy, count the
// candidate seed sets symmetric to them, and time the counting.
func Table6(cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("Table 6: symmetric seed sets for IM seeds (1/%d scale)", cfg.Scale),
		Header: []string{"Graph", "|S|=10 number", "time", "|S|=100 number", "time"},
	}
	for _, d := range gen.RealDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(cfg.Scale)
		rec := obs.New()
		tree := core.Build(g, nil, core.Options{Obs: rec})
		ix := ssm.NewIndex(tree)
		ix.SetRecorder(rec)
		// IC probability as in the paper's setup: constant per edge.
		model := im.NewIC(g, 0.05, 64, 42)
		row := []string{d.Name}
		for _, k := range []int{10, 100} {
			seeds := model.Greedy(k)
			start := time.Now()
			count := ix.CountImages(seeds)
			elapsed := time.Since(start)
			row = append(row, fmtBig(count.String()), fmtDur(elapsed))
		}
		t.Rows = append(t.Rows, row)
		t.Snapshots = append(t.Snapshots, map[string]obs.Snapshot{"dvicl+ssm": rec.Snapshot()})
	}
	return t
}

// Table7 regenerates the subgraph-clustering experiment (paper Table 7):
// all maximum cliques and all triangles are clustered into symmetry
// classes via the AutoTree's pattern keys.
func Table7(cfg Config) Table {
	t := Table{
		Title: fmt.Sprintf("Table 7: subgraph clustering by SSM (1/%d scale, ≤%d subgraphs per kind)",
			cfg.Scale, cfg.MaxSubgraphs),
		Header: []string{"Graph", "cliques", "clusters", "max", "triangles", "clusters", "max"},
	}
	for _, d := range gen.RealDatasets() {
		if !cfg.wants(d.Name) {
			continue
		}
		g := d.Build(cfg.Scale)
		tree := core.Build(g, nil, core.Options{})
		ix := ssm.NewIndex(tree)

		cluster := func(sets [][]int) (clusters, max int) {
			counts := map[string]int{}
			for _, s := range sets {
				counts[ix.PatternKey(s)]++
			}
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			return len(counts), max
		}

		_, cliques := clique.MaxCliques(g, cfg.MaxSubgraphs)
		cc, cm := cluster(cliques)

		var triangles [][]int
		clique.Triangles(g, func(a, b, c int) {
			if cfg.MaxSubgraphs > 0 && len(triangles) >= cfg.MaxSubgraphs {
				return
			}
			triangles = append(triangles, []int{a, b, c})
		})
		tc, tm := cluster(triangles)

		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprint(len(cliques)), fmt.Sprint(cc), fmt.Sprint(cm),
			fmt.Sprint(len(triangles)), fmt.Sprint(tc), fmt.Sprint(tm),
		})
	}
	return t
}
