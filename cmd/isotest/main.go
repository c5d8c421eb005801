// Command isotest decides whether two graphs are isomorphic, printing the
// verdict and, when isomorphic, statistics of the shared canonical form.
//
// Usage:
//
//	isotest a.txt b.txt            # edge lists
//	isotest -format graph6 a.g6 b.g6
//	isotest -metrics-json out.json -debug-addr :6060 a.txt b.txt
//
// Exit status: 0 isomorphic, 1 not isomorphic, 2 error — so the command
// composes in shell scripts (the "database indexing" application of the
// paper's introduction).
//
// -metrics-json dumps the observability counters (refinement, search
// effort, prunings, phase timings) of the decision to a file; -debug-addr
// serves pprof/expvar while the decision runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dvicl"
)

func main() {
	format := flag.String("format", "edgelist", "input format: edgelist or graph6")
	metricsJSON := flag.String("metrics-json", "", "write the observability snapshot to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: isotest [-format edgelist|graph6] a b")
		os.Exit(2)
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
	g1 := load(flag.Arg(0), *format)
	g2 := load(flag.Arg(1), *format)
	fmt.Printf("a: n=%d m=%d   b: n=%d m=%d\n", g1.N(), g1.M(), g2.N(), g2.M())
	status := 1
	if g1.N() != g2.N() || g1.M() != g2.M() {
		fmt.Println("NOT isomorphic (size mismatch)")
	} else {
		start := time.Now()
		iso := dvicl.IsomorphicOpt(g1, g2, dvicl.Options{Obs: rec})
		elapsed := time.Since(start).Round(time.Microsecond)
		if iso {
			fmt.Printf("ISOMORPHIC (decided in %v)\n", elapsed)
			_, order := dvicl.AutomorphismGroup(g1)
			fmt.Printf("|Aut| = %v\n", order)
			status = 0
		} else {
			fmt.Printf("NOT isomorphic (decided in %v)\n", elapsed)
		}
	}
	if *metricsJSON != "" {
		if err := rec.Snapshot().WriteFile(*metricsJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsJSON)
	}
	os.Exit(status)
}

func load(path, format string) *dvicl.Graph {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	switch format {
	case "edgelist":
		g, err := dvicl.ReadEdgeList(strings.NewReader(string(data)))
		if err != nil {
			fatal(err)
		}
		return g
	case "graph6":
		g, err := dvicl.FromGraph6(strings.TrimSpace(string(data)))
		if err != nil {
			fatal(err)
		}
		return g
	default:
		fatal(fmt.Errorf("unknown format %q", format))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "isotest:", err)
	os.Exit(2)
}
