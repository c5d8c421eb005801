// Command benchtables regenerates the paper's evaluation tables (Section
// 7, Tables 1–8) on the synthetic workloads.
//
// Usage:
//
//	benchtables [-table all|1|2|...|8] [-scale 20] [-timeout 60s]
//	            [-datasets wikivote,Epinions] [-maxsubgraphs 200000]
//	            [-json results]
//
// Real-graph stand-ins are generated at 1/scale of the paper's sizes;
// shapes (who wins, where timeouts fall), not absolute seconds, are the
// comparison target. See EXPERIMENTS.md for recorded runs.
//
// -json writes every regenerated table to <dir>/BENCH_table<id>.json,
// with the search-effort counter snapshots (nodes, prunings, refinement
// rounds, phase timings) of each instrumented run next to the printed
// cells — so perf PRs diff counters, not vibes.
//
// -perfbench <out.json> runs the continuous-benchmarking suite
// (internal/perfbench) instead of the tables and writes a versioned
// BENCH_<tag>.json artifact for cmd/benchdiff to compare:
//
//	benchtables -perfbench results/BENCH_PR20.json -perfbench-quick \
//	            -perfbench-tag PR20
//	benchtables -perfbench /tmp/BENCH_ci.json -perfbench-quick \
//	            -profile-dir /tmp/pprof
//
// See docs/PERFORMANCE.md for the suite, the artifact schema, and the
// regression-gate thresholds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dvicl/internal/bench"
	"dvicl/internal/perfbench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate (1-8 or all)")
	scale := flag.Int("scale", 20, "divide the paper's real-graph sizes by this factor")
	timeout := flag.Duration("timeout", 60*time.Second, "per-algorithm budget (stands in for the paper's 2h)")
	datasets := flag.String("datasets", "", "comma-separated dataset filter (default: all)")
	maxSubgraphs := flag.Int("maxsubgraphs", 200000, "cap on triangles/cliques clustered in table 7")
	jsonDir := flag.String("json", "", "also write each table to <dir>/BENCH_table<id>.json with counter snapshots")
	perfOut := flag.String("perfbench", "", "run the perfbench suite instead of the tables and write the BENCH file here")
	perfQuick := flag.Bool("perfbench-quick", false, "perfbench: run the reduced-size (CI) instances")
	perfReps := flag.Int("perfbench-reps", 0, "perfbench: measured reps per scenario (0 = 3 quick / 5 full)")
	perfTag := flag.String("perfbench-tag", "dev", "perfbench: tag recorded in the BENCH file")
	perfScenarios := flag.String("perfbench-scenarios", "", "perfbench: comma-separated scenario filter (default: all)")
	profileDir := flag.String("profile-dir", "", "perfbench: capture per-scenario CPU+heap pprof profiles into this directory")
	flag.Parse()

	if *perfOut != "" {
		os.Exit(runPerfbench(*perfOut, perfbench.Options{
			Tag:        *perfTag,
			Quick:      *perfQuick,
			Reps:       *perfReps,
			Scenarios:  splitList(*perfScenarios),
			ProfileDir: *profileDir,
			Log:        os.Stderr,
		}))
	}

	cfg := bench.Config{
		Scale:        *scale,
		Timeout:      *timeout,
		MaxSubgraphs: *maxSubgraphs,
	}
	cfg.Datasets = splitList(*datasets)

	runners := map[string]func(bench.Config) bench.Table{
		"1": bench.Table1, "2": bench.Table2,
		"3": bench.Table3, "4": bench.Table4,
		"5": bench.Table5, "6": bench.Table6,
		"7": bench.Table7, "8": bench.Table8,
	}
	var order []string
	if *table == "all" {
		order = []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	} else {
		if _, ok := runners[*table]; !ok {
			fmt.Fprintf(os.Stderr, "benchtables: unknown table %q (want 1-8 or all)\n", *table)
			os.Exit(2)
		}
		order = []string{*table}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range order {
		start := time.Now()
		t := runners[id](cfg)
		fmt.Println(t.Format())
		fmt.Printf("(table %s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_table"+id+".json")
			if err := writeTableJSON(path, t); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}
}

func writeTableJSON(path string, t bench.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteJSON(f)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// runPerfbench executes the continuous-benchmarking suite and writes
// the validated BENCH file, returning the process exit code.
func runPerfbench(out string, opts perfbench.Options) int {
	start := time.Now()
	f, err := perfbench.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: perfbench: %v\n", err)
		return 1
	}
	if err := perfbench.WriteFile(out, f); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench: wrote %s (%s mode, %d scenarios, tag %q) in %v\n",
		out, f.Mode, len(f.Scenarios), f.Tag, time.Since(start).Round(time.Millisecond))
	return 0
}
