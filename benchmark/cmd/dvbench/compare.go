package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts, one per metric and one per workload (the worst of its
// metrics, in this order of precedence).
const (
	regressed  = "regressed"
	unresolved = "unresolved"
	improved   = "improved"
	unchanged  = "unchanged"
)

// metricVerdict compares one metric's runs of the parent (a) and the
// change (b). Each side's values are keyed by seed, for pairing. A change
// is worse than the bound when its median is worse than the parent's by
// more than bound (a share of the parent's median). A spread (the
// distance between quartiles, as a share of the median) wider than the
// bound on either side leaves the metric unresolved, unless every run of
// the change reads better than every run of the parent. In claim mode a
// gain counts only over at least 10 seed-paired runs, when the change
// wins 9 of 10 pairs and the medians differ by more than the parent's
// own spread.
func metricVerdict(m specMetric, a, b map[int64]float64, claim bool) (verdict, detail string) {
	av, bv := values(a), values(b)
	ma, mb := median(av), median(bv)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	q1a, q3a := quartiles(av)
	q1b, q3b := quartiles(bv)
	spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	detail = fmt.Sprintf("%s: parent %.4g [%.4g, %.4g], change %.4g [%.4g, %.4g], worse by %+.1f%% (bound %.0f%%, spread %.1f%%)",
		m.Name, ma, q1a, q3a, mb, q1b, q3b, 100*worse, 100*m.Bound, 100*spread)
	switch {
	case allBetter && len(av) > 0 && len(bv) > 0:
		// every change run beats every parent run: never a regression
	case spread > m.Bound:
		return unresolved, detail
	case worse > m.Bound:
		return regressed, detail
	}
	if !claim {
		return unchanged, detail
	}
	pairs, wins := 0, 0
	for seed, x := range b {
		if y, ok := a[seed]; ok {
			pairs++
			if better(x, y) {
				wins++
			}
		}
	}
	detail += fmt.Sprintf(", wins %d/%d pairs", wins, pairs)
	gap := mb - ma
	if gap < 0 {
		gap = -gap
	}
	if pairs >= 10 && wins*10 >= pairs*9 && better(mb, ma) && gap > q3a-q1a {
		return improved, detail
	}
	return unchanged, detail
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// loadRecords reads the untraced, valid run records in dir, as workload
// -> metric -> seed -> value. A seed run more than once keeps its last
// record in file-name order.
func loadRecords(dir string) (map[string]map[string]map[int64]float64, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(files)
	out := map[string]map[string]map[int64]float64{}
	skipped := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, 0, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		if r.Traced {
			continue
		}
		if !r.Valid || !r.Correct {
			skipped++
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[int64]float64{}
		}
		for name, v := range r.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[int64]float64{}
			}
			out[r.Workload][name][r.Env.Seed] = v.Value
		}
	}
	return out, skipped, nil
}

// compareMain is "dvbench compare [-claim] [-spec file] <parentDir>
// <changeDir>": one row per workload, exit 1 if any workload regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	claim := fs.Bool("claim", false, "also judge gains: at least 10 seed-paired runs, 9 of 10 won, median gap above the parent's spread")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: dvbench compare [-claim] [-spec BENCHMARK.json] <parentDir> <changeDir>")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "dvbench compare: %v\n", err)
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(stderr, "dvbench compare: %s: %v\n", *specPath, err)
		return 2
	}
	sides := make([]map[string]map[string]map[int64]float64, 2)
	for i, dir := range fs.Args() {
		recs, skipped, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintf(stderr, "dvbench compare: %v\n", err)
			return 2
		}
		if skipped > 0 {
			fmt.Fprintf(stdout, "%s: %d invalid or incorrect runs left out\n", dir, skipped)
		}
		sides[i] = recs
	}
	var names []string
	for w := range sides[0] {
		if sides[1][w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "dvbench compare: no workload has runs on both sides")
		return 2
	}
	rank := map[string]int{regressed: 0, unresolved: 1, improved: 2, unchanged: 3}
	code := 0
	for _, w := range names {
		row := unchanged
		var details []string
		for _, m := range spec.EndToEnd {
			a, bv := sides[0][w][m.Name], sides[1][w][m.Name]
			v, d := unresolved, m.Name+": missing on one side"
			if len(a) > 0 && len(bv) > 0 {
				v, d = metricVerdict(m, a, bv, *claim)
			}
			details = append(details, v+"  "+d)
			if rank[v] < rank[row] {
				row = v
			}
		}
		if row == regressed {
			code = 1
		}
		fmt.Fprintf(stdout, "%-14s %s\n", w, row)
		for _, d := range details {
			fmt.Fprintf(stdout, "    %s\n", d)
		}
	}
	return code
}
