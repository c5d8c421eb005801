// Command dvbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives the system from outside through
// its public entry points (the dvicl facade, internal/pipeline, and the
// indexd daemon over HTTP), checks every answer, and prints the metrics.
//
// Usage:
//
//	dvbench -workload <name> -seed <n> [-seconds s] [-trace 0|1]
//	        [-indexd path] [-work dir] [-out dir] [-commit rev]
//	dvbench compare [-claim] [-spec BENCHMARK.json] <dirA> <dirB>
//
// The workloads are hard-canon, social-ingest, serve-mixed and symq-cold
// (see benchmark/README.md for what each measures and why). The last line
// of standard output is the run's summary:
//
//	{"correct":true,"attempted":1200,"failed":0,"metrics":{"ops_per_s":{"value":51.2,"unit":"1/s"},...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// reports the per-layer metrics and writes its spans to a JSON file. The
// command exits 1 when an answer is wrong or a validity counter that must
// be zero is not, and 2 on a usage or set-up error.
//
// benchmark/run.sh builds dvbench and indexd from the checkout and runs
// this command; BENCHMARK.json names it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) error{
	"hard-canon":    runHardCanon,
	"social-ingest": runIngest,
	"serve-mixed":   runServe,
	"symq-cold":     runSymq,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], fullConfig(), os.Stdout, os.Stderr))
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// environment records where and how a result was measured.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Rate       float64 `json:"serve_rate_per_s"`
	Seconds    float64 `json:"seconds"`
}

// record is the full result of one run: the summary plus what is needed
// to judge it (environment, validity, sample counts, checks).
type record struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	summary
	// Valid is false when the run cannot be trusted as a measurement
	// (not when it was slow): Invalid says why.
	Valid   bool               `json:"valid"`
	Invalid string             `json:"invalid,omitempty"`
	Checks  map[string]int64   `json:"checks"`
	Samples map[string]float64 `json:"samples"`
	SetupS  []float64          `json:"setup_runs_s,omitempty"`
	// Counters holds the program's deterministic counters over one
	// reference pass of a traced run: two traced runs of one seed must
	// agree on them exactly.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// spanCapacity bounds a traced run's span buffer (32 bytes a span); a
// run that fills it drops the rest and reports how many.
const spanCapacity = 1 << 18

// runCtx is one run's state, shared by the workload runners.
type runCtx struct {
	cfg     config
	name    string
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer // nil in untraced runs and untraced passes
	work    string  // scratch directory of this run, removed at exit
	indexd  string
	log     io.Writer

	m         map[string]float64
	attempted int64
	failed    int64
	checks    map[string]int64
	samples   map[string]float64
	setupRuns []float64
	counters  map[string]int64
	invalid   string
	tracePath string
}

// fail counts one wrong, refused or failed answer.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	if rc.failed <= 5 {
		fmt.Fprintf(rc.log, "dvbench: %s: wrong answer: %s\n", rc.name, fmt.Sprintf(format, args...))
	}
}

// setup runs one workload's set-up cfg.setups times, keeping the last
// set-up's state, and reports the median duration as setup_s. fn
// returns a release function for its state (nil for none), which is
// called, untimed, for every set-up but the last.
func (rc *runCtx) setup(fn func() (release func(), err error)) error {
	for i := 0; i < rc.cfg.setups; i++ {
		t0 := time.Now()
		release, err := fn()
		d := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rc.setupRuns = append(rc.setupRuns, d)
		if i < rc.cfg.setups-1 && release != nil {
			release()
		}
	}
	rc.m["setup_s"] = median(rc.setupRuns)
	return nil
}

// passes runs a closed-loop workload's measured section: whole passes
// over identical work, until -seconds have passed and, untraced, until
// cfg.minOps operations are done (cfg.maxSeconds stops a run that is far
// too slow). A traced run alternates untraced and traced passes; their
// median rates give trace.overhead_ratio. pass runs pass k, traced or
// not, and returns its operations and the time they took (which may
// leave out the pass's own clean-up). The result is the rate of every
// measured pass (in a traced run: every traced pass) and their total
// operations.
func (rc *runCtx) passes(pass func(k int, traced bool) (int, time.Duration, error)) (rates []float64, ops int, err error) {
	start := time.Now()
	var base []float64
	for k := 0; ; k++ {
		traced := rc.traced && k%2 == 1
		n, d, err := pass(k, traced)
		if err != nil {
			return nil, 0, err
		}
		rate := float64(n) / d.Seconds()
		if rc.traced && !traced {
			base = append(base, rate)
		} else {
			rates = append(rates, rate)
			ops += n
		}
		el := time.Since(start).Seconds()
		enough := ops >= rc.cfg.minOps || rc.traced
		if len(rates) > 0 && (el >= rc.seconds && enough || el >= rc.cfg.maxSeconds) {
			break
		}
	}
	if rc.traced {
		rc.m["trace.overhead_ratio"] = median(rates) / median(base)
	}
	return rates, ops, nil
}

// latencies reports latency_p50_ms and latency_p99_ms from samples in
// milliseconds.
func (rc *runCtx) latencies(ms []float64) error {
	rc.samples["latency"] = float64(len(ms))
	rc.m["latency_p50_ms"] = median(ms)
	p99, err := percentile(ms, 99)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w", err)
	}
	rc.m["latency_p99_ms"] = p99
	return nil
}

// selfTimeMetrics turns the recorded spans into per-layer self times:
// trace.unattributed_* from the root spans' self time, and the named
// per-layer metrics that are a layer's self time, per operation.
func (rc *runCtx) selfTimeMetrics(ops float64) (self [numLayers]int64) {
	self, _ = selfTimes(rc.tr.spans())
	var total int64
	for _, v := range self {
		total += v
	}
	rc.m["trace.unattributed_ms_per_op"] = ratio(float64(self[layerOp])/1e6, ops)
	rc.m["trace.unattributed_share"] = ratio(float64(self[layerOp]), float64(total))
	return self
}

// peakRSSMB returns VmHWM of a process (pid 0: this one) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func runMain(args []string, cfg config, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hard-canon, social-ingest, serve-mixed or symq-cold")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "measure at least this long")
	trace := fs.String("trace", "0", "0 = untraced (end-to-end metrics); 1 = traced (per-layer metrics, spans to <work>/trace-<workload>-<seed>.json)")
	work := fs.String("work", ".bench_build", "scratch directory for index data and span files")
	indexd := fs.String("indexd", "", "indexd binary for serve-mixed")
	out := fs.String("out", "", "also write the full result record into this directory")
	commit := fs.String("commit", "unknown", "commit measured, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "dvbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "dvbench: -trace must be 0 or 1, not %q\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "dvbench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "dvbench: %v\n", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*work, "run-"+*name+"-*")
	if err != nil {
		fmt.Fprintf(stderr, "dvbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	rc := &runCtx{
		cfg: cfg, name: *name, seed: *seed, seconds: *seconds,
		work: scratch, indexd: *indexd, log: stderr,
		m: map[string]float64{}, checks: map[string]int64{}, samples: map[string]float64{},
	}
	if *trace == "1" {
		rc.traced = true
		rc.tracePath = filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		rc.tr = newTracer(spanCapacity)
	}
	if err := run(rc); err != nil {
		fmt.Fprintf(stderr, "dvbench: %s: %v\n", *name, err)
		return 2
	}

	rec := rc.result(*commit)
	if rc.traced {
		if err := rc.writeTrace(); err != nil {
			fmt.Fprintf(stderr, "dvbench: %s: trace: %v\n", *name, err)
			return 2
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "dvbench: %v\n", err)
		return 2
	}
	if *out != "" {
		mode := "untraced"
		if rc.traced {
			mode = "traced"
		}
		path := filepath.Join(*out, fmt.Sprintf("%s-%s-%d-%d.json", *name, mode, *seed, time.Now().UnixNano()))
		if err := os.MkdirAll(*out, 0o755); err == nil {
			err = os.WriteFile(path, append(line, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "dvbench: -out: %v\n", err)
			return 2
		}
	}
	if !rec.Valid {
		fmt.Fprintf(stderr, "dvbench: %s: run is not a valid measurement: %s\n", *name, rec.Invalid)
	}
	fmt.Fprintln(stdout, string(line))
	last, _ := json.Marshal(rec.summary)
	fmt.Fprintln(stdout, string(last))
	if !rec.Correct {
		return 1
	}
	return 0
}

// result assembles the run's record: the metric set of its mode, every
// metric present (a layer the workload does not run reads 0).
func (rc *runCtx) result(commit string) record {
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	metrics := make(map[string]metricVal, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricVal{Value: rc.m[d.name], Unit: d.unit}
	}
	var bad []string
	for name, v := range rc.checks {
		if v != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", name, v))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		fmt.Fprintf(rc.log, "dvbench: %s: counters that must be 0 are not: %s\n", rc.name, strings.Join(bad, " "))
	}
	return record{
		Workload: rc.name,
		Traced:   rc.traced,
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Seed: rc.seed, Commit: commit, Rate: rc.cfg.sm.rate, Seconds: rc.seconds,
		},
		summary: summary{
			Correct:   rc.failed == 0 && len(bad) == 0,
			Attempted: rc.attempted,
			Failed:    rc.failed,
			Metrics:   metrics,
		},
		Valid:    rc.invalid == "",
		Invalid:  rc.invalid,
		Checks:   rc.checks,
		Samples:  rc.samples,
		SetupS:   rc.setupRuns,
		Counters: rc.counters,
	}
}

// writeTrace writes the traced run's spans and per-layer self times.
func (rc *runCtx) writeTrace() error {
	spans := rc.tr.spans()
	self, roots := selfTimes(spans)
	layers := map[string]float64{}
	for l, v := range self {
		layers[layerNames[l]] = float64(v) / 1e6
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   []string           `json:"layers"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Roots    int                `json:"ops_traced"`
		Dropped  int64              `json:"spans_dropped"`
		Counters map[string]int64   `json:"counters"`
		Spans    []span             `json:"spans"`
	}{rc.name, rc.seed, layerNames[:], layers, roots, rc.tr.dropped, rc.counters, spans}
	if err := os.MkdirAll(filepath.Dir(rc.tracePath), 0o755); err != nil {
		return err
	}
	f, err := os.Create(rc.tracePath)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
