// Command ssmquery answers symmetric-subgraph-matching queries (the
// paper's SSM, Section 6.4) against a graph: given a vertex set S, it
// reports how many subgraphs of G are symmetric to S and enumerates a
// few.
//
// Usage:
//
//	ssmquery -graph graph.txt -set 3,4,5 [-enumerate 10]
//	ssmquery -graph graph.txt -triangles [-limit 100000]
//	ssmquery -graph graph.txt -set 3,4,5 -metrics-json out.json -debug-addr :6060
//	ssmquery -index http://localhost:7171 -id 0 -set 0,1 [-enumerate 10]
//
// With -triangles it instead clusters all triangles of the graph into
// symmetry classes (the paper's Table 7 workload).
//
// With -index it queries a running indexd daemon's /ssm endpoint instead
// of building anything locally: -id names a stored graph, and the daemon
// answers from its persistent AutoTree store (warm path: zero rebuilds).
// The vertex set is then in canonical-graph space — the daemon's answers
// are class-level.
//
// -metrics-json dumps the build and query counters (refinement, leaf
// search effort, SSM candidates/prunings, phase timings) to a file;
// -debug-addr serves pprof/expvar live during the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dvicl"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list file (required unless -index)")
	indexURL := flag.String("index", "", "query a running indexd at this base URL instead of building locally")
	graphID := flag.Int("id", 0, "stored graph id to query (with -index)")
	setArg := flag.String("set", "", "comma-separated vertex set to query")
	enumerate := flag.Int("enumerate", 10, "how many symmetric images to print")
	triangles := flag.Bool("triangles", false, "cluster all triangles by symmetry instead")
	limit := flag.Int("limit", 100000, "max triangles to cluster")
	metricsJSON := flag.String("metrics-json", "", "write the observability snapshot to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address")
	flag.Parse()

	if *indexURL != "" {
		if *setArg == "" {
			fatal(fmt.Errorf("-index mode requires -set"))
		}
		set, err := parseSet(*setArg, -1)
		if err != nil {
			fatal(err)
		}
		if err := queryIndex(*indexURL, *graphID, set, *enumerate); err != nil {
			fatal(err)
		}
		return
	}
	if *graphPath == "" {
		fatal(fmt.Errorf("-graph is required (or -index)"))
	}
	var rec *dvicl.MetricsRecorder
	if *metricsJSON != "" || *debugAddr != "" {
		rec = dvicl.NewMetricsRecorder()
	}
	if *debugAddr != "" {
		srv, err := dvicl.ServeDebug(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server: http://%s/debug/pprof/\n", srv.Addr)
	}
	if *metricsJSON != "" {
		defer func() {
			if err := rec.Snapshot().WriteFile(*metricsJSON); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics written to %s\n", *metricsJSON)
		}()
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := dvicl.ReadEdgeList(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	start := time.Now()
	tree := dvicl.BuildAutoTree(g, nil, dvicl.Options{Obs: rec})
	fmt.Printf("autotree built in %v (|Aut| = %v)\n",
		time.Since(start).Round(time.Millisecond), tree.AutOrder())
	ix := dvicl.NewSSMIndex(tree)
	ix.SetRecorder(rec)

	if *triangles {
		clusterTriangles(g, ix, *limit)
		return
	}
	if *setArg == "" {
		fatal(fmt.Errorf("provide -set or -triangles"))
	}
	set, err := parseSet(*setArg, g.N())
	if err != nil {
		fatal(err)
	}
	start = time.Now()
	count := ix.CountImages(set)
	fmt.Printf("symmetric subgraphs of %v: %v (counted in %v)\n",
		set, count, time.Since(start).Round(time.Microsecond))
	if *enumerate > 0 {
		for i, img := range ix.Enumerate(set, *enumerate) {
			fmt.Printf("  image %d: %v\n", i, img)
		}
	}
}

// parseSet parses a comma-separated vertex list; n < 0 skips the range
// check (the -index mode leaves validation to the daemon).
func parseSet(arg string, n int) ([]int, error) {
	var set []int
	for _, part := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n >= 0 && (v < 0 || v >= n) {
			return nil, fmt.Errorf("vertex %d out of range", v)
		}
		set = append(set, v)
	}
	return set, nil
}

func clusterTriangles(g *dvicl.Graph, ix *dvicl.SSMIndex, limit int) {
	start := time.Now()
	counts := map[string]int{}
	total := 0
	dvicl.Triangles(g, func(a, b, c int) {
		if limit > 0 && total >= limit {
			return
		}
		total++
		counts[ix.PatternKey([]int{a, b, c})]++
	})
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	fmt.Printf("triangles: %d, symmetry clusters: %d, largest cluster: %d (in %v)\n",
		total, len(counts), max, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssmquery:", err)
	os.Exit(1)
}
