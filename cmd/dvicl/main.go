// Command dvicl canonically labels a graph with the DviCL algorithm and
// reports the AutoTree structure, the automorphism group, and a canonical
// certificate.
//
// Usage:
//
//	dvicl [-algo dvicl|nauty|bliss|traces] [-orbits] [-cert] [-stats]
//	      [-workers n] [-metrics-json out.json] [-debug-addr :6060] [file]
//
// The input is a whitespace-separated edge list ("u v" per line, '#'
// comments); stdin is read when no file is given. -algo selects either
// DviCL (with bliss-policy leaves) or one of the emulated
// individualization–refinement baselines.
//
// -metrics-json dumps the observability snapshot (search-effort counters
// and per-phase timings) to a file after the run; -debug-addr serves
// net/http/pprof, expvar (/debug/vars) and the live snapshot
// (/debug/metrics) for the duration of the run.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dvicl"
	"dvicl/internal/canon"
	"dvicl/internal/group"
)

func main() {
	algo := flag.String("algo", "dvicl", "algorithm: dvicl, nauty, bliss or traces")
	showOrbits := flag.Bool("orbits", false, "print the orbit partition")
	showCert := flag.Bool("cert", false, "print the canonical certificate (hex)")
	showStats := flag.Bool("stats", true, "print AutoTree / search statistics")
	dump := flag.Bool("dump", false, "print the AutoTree structure (dvicl only)")
	workers := flag.Int("workers", 0, "parallel subtree builders (dvicl only; 0 = sequential)")
	metricsJSON := flag.String("metrics-json", "", "write the observability snapshot to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address")
	flag.Parse()

	rec := newRecorder(*metricsJSON, *debugAddr)
	if *debugAddr != "" {
		srv, err := dvicl.ServeDebug(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server: http://%s/debug/pprof/\n", srv.Addr)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	g, err := dvicl.ReadEdgeList(in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d dmax=%d davg=%.2f\n", g.N(), g.M(), g.MaxDegree(), g.AvgDegree())

	switch *algo {
	case "dvicl":
		start := time.Now()
		tree := dvicl.BuildAutoTree(g, nil, dvicl.Options{Workers: *workers, Obs: rec})
		elapsed := time.Since(start)
		fmt.Printf("dvicl: %v\n", elapsed.Round(time.Microsecond))
		fmt.Printf("|Aut| = %v\n", tree.AutOrder())
		if *showStats {
			s := tree.Stats()
			fmt.Printf("autotree: nodes=%d singleton=%d non-singleton=%d avg-leaf=%.2f depth=%d\n",
				s.Nodes, s.SingletonLeaves, s.NonSingletonLeaves, s.AvgLeafSize, s.Depth)
			fmt.Printf("leaf effort: search-nodes=%d leaves=%d\n", s.LeafSearchNodes, s.LeafSearchLeaves)
			cells, singles := tree.OrbitStats()
			fmt.Printf("orbit coloring: cells=%d singleton=%d\n", cells, singles)
		}
		if *showOrbits {
			printOrbits(tree.Orbits())
		}
		if *showCert {
			fmt.Printf("cert prefix: %s\n", hex.EncodeToString(hashTrunc(tree.CanonicalCert())))
		}
		if *dump {
			if err := tree.Dump(os.Stdout, 8); err != nil {
				fatal(err)
			}
		}
	case "nauty", "bliss", "traces":
		pol := map[string]canon.Policy{
			"nauty": canon.PolicyNauty, "bliss": canon.PolicyBliss, "traces": canon.PolicyTraces,
		}[*algo]
		start := time.Now()
		res := dvicl.Baseline(g, nil, dvicl.BaselineOptions{Policy: pol, Obs: rec})
		elapsed := time.Since(start)
		fmt.Printf("%s: %v (nodes=%d leaves=%d)\n", *algo, elapsed.Round(time.Microsecond), res.Nodes, res.Leaves)
		if *showStats {
			fmt.Printf("prunings: best-path=%d orbit=%d backjumps=%d\n",
				res.PruneBestPath, res.PruneOrbit, res.Backjumps)
		}
		fmt.Printf("|Aut| = %v\n", group.New(g.N(), res.Generators).Order())
		if *showOrbits {
			printOrbits(group.Orbits(g.N(), res.Generators))
		}
		if *showCert {
			fmt.Printf("cert prefix: %s\n", hex.EncodeToString(hashTrunc(res.Cert)))
		}
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}

	if *metricsJSON != "" {
		if err := rec.Snapshot().WriteFile(*metricsJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsJSON)
	}
}

// newRecorder returns an enabled recorder when any observability output is
// requested, and nil (the no-op recorder) otherwise.
func newRecorder(metricsJSON, debugAddr string) *dvicl.MetricsRecorder {
	if metricsJSON == "" && debugAddr == "" {
		return nil
	}
	return dvicl.NewMetricsRecorder()
}

func printOrbits(orbits [][]int) {
	nontrivial := 0
	for _, o := range orbits {
		if len(o) > 1 {
			nontrivial++
			if nontrivial <= 50 {
				fmt.Printf("orbit: %v\n", o)
			}
		}
	}
	if nontrivial > 50 {
		fmt.Printf("... and %d more non-singleton orbits\n", nontrivial-50)
	}
	if nontrivial == 0 {
		fmt.Println("graph is rigid (all orbits singleton)")
	}
}

func hashTrunc(cert []byte) []byte {
	if len(cert) > 16 {
		return cert[:16]
	}
	return cert
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvicl:", err)
	os.Exit(1)
}
