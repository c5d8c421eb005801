package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a running indexd child process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result
	base   string     // http://host:port of the API
	debug  string     // http://host:port of the debug server
	client *http.Client
	log    *daemonLog
}

// daemonLog collects indexd's standard error, picking the listen
// addresses (as http://host:port) out of its start-up lines and keeping
// the tail for errors.
type daemonLog struct {
	mu          sync.Mutex
	buf         bytes.Buffer
	tail        []string
	addr, debug string
	ready       chan struct{}
	once        sync.Once
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		line, err := l.buf.ReadString('\n')
		if err != nil {
			l.buf.WriteString(line) // partial line: keep for the next write
			break
		}
		l.tail = append(l.tail, strings.TrimSpace(line))
		if len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
		if i := strings.Index(line, "debug server on http://"); i >= 0 {
			l.debug = strings.TrimSuffix(strings.Fields(line[i+len("debug server on "):])[0], "/debug/pprof/")
		}
		if i := strings.Index(line, "serving on http://"); i >= 0 {
			l.addr = strings.Fields(line[i+len("serving on "):])[0]
			l.once.Do(func() { close(l.ready) })
		}
	}
	return len(p), nil
}

func (l *daemonLog) lastLines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// startIndexd starts bin with default flags plus a data directory, a
// loopback port of its choosing and a debug server (for its memory
// statistics), and waits until it serves.
func startIndexd(bin, dataDir string, conns int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve-mixed needs -indexd")
	}
	l := &daemonLog{ready: make(chan struct{})}
	cmd := exec.Command(bin, "-data", dataDir, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd.Stdout = io.Discard
	cmd.Stderr = l
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start indexd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d := &daemon{cmd: cmd, exited: exited, log: l}
	select {
	case <-l.ready:
	case err := <-exited:
		return nil, fmt.Errorf("indexd exited at start (%v):\n%s", err, l.lastLines())
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("indexd did not start serving:\n%s", l.lastLines())
	}
	l.mu.Lock()
	d.base, d.debug = l.addr, l.debug
	l.mu.Unlock()
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	// indexd installs its signal handler before it starts serving, so a
	// health check that answers also means stop() can shut it down
	// gracefully.
	if st, _, err := d.do("GET", "/healthz", nil); err != nil || st != http.StatusOK {
		_ = d.stop()
		return nil, fmt.Errorf("indexd /healthz: status %d: %v", st, err)
	}
	return d, nil
}

// stop shuts indexd down gracefully (it writes its final snapshot) and
// waits for it to exit, killing it if it does not within a minute.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("indexd: %w\n%s", err, d.log.lastLines())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("indexd did not shut down; killed")
	}
}

// do sends one request and returns the status and the whole body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads indexd's /metrics.
func (d *daemon) scrape() (counts, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return counts{}, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// totalAlloc reads runtime.MemStats.TotalAlloc of indexd from its
// debug server's expvar page.
func (d *daemon) totalAlloc() (float64, error) {
	resp, err := d.client.Get(d.debug + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct{ TotalAlloc float64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, err
	}
	return v.Memstats.TotalAlloc, nil
}

// satSlices is how many slices the saturation phase's throughput is the
// median over.
const satSlices = 6

// runServe measures indexd over HTTP: an open loop of Poisson arrivals
// at the pinned rate (latencies, from each request's due time), then a
// closed saturation phase on the same connections (throughput). The mix
// writes (new graphs, relabeled duplicates, byte-exact repeats) while it
// reads (lookups, orbits, automorphism groups, SSM), so writes share
// shard locks and the WAL with reads; every tree fits the tree store.
func runServe(rc *runCtx) error {
	cfg := rc.cfg.sm
	in := genServe(cfg, rc.seed, rc.seconds)
	openN := len(in.due)

	refs := make([]symRef, len(in.targets))
	var d *daemon
	var dataDir string
	setupN := 0
	err := rc.setup(func() (func(), error) {
		// Reference answers come from the dvicl facade in this process,
		// before indexd starts.
		for i, t := range in.targets {
			refs[i] = refOf(t.g, t.patterns)
		}
		setupN++
		dataDir = filepath.Join(rc.work, fmt.Sprintf("indexd-%d", setupN))
		var err error
		if d, err = startIndexd(rc.indexd, dataDir, cfg.conns); err != nil {
			return nil, err
		}
		release := func() {
			if err := d.stop(); err != nil {
				fmt.Fprintf(rc.log, "dvbench: serve-mixed: %v\n", err)
			}
			os.RemoveAll(dataDir)
		}
		if err := preload(d, in); err != nil {
			release()
			return nil, err
		}
		// Warm-up: every target's tree into the decoded-tree cache.
		for _, t := range in.targets {
			if st, _, err := d.do("GET", fmt.Sprintf("/orbits?id=%d", t.id), nil); err != nil || st != 200 {
				release()
				return nil, fmt.Errorf("warm-up /orbits?id=%d: status %d: %v", t.id, st, err)
			}
		}
		return release, nil
	})
	if err != nil {
		return err
	}
	if rc.cfg.corruptRef {
		refs[0].order += "0"
	}
	defer func() {
		if d != nil {
			_ = d.stop() // the run already failed; that error is the one reported
		}
	}()

	// check verifies the answer to reqs[i] and counts a wrong one.
	status := make([]int, len(in.reqs))
	bodies := make([][]byte, len(in.reqs))
	var mu sync.Mutex // guards rc's counters against the two connections
	send := func(base int) func(c, i int) {
		return func(c, i int) {
			req := &in.reqs[base+i]
			method := "GET"
			if req.body != nil {
				method = "POST"
			}
			st, b, err := d.do(method, req.path, req.body)
			if err != nil {
				st = 0
				b = []byte(err.Error())
			}
			status[base+i], bodies[base+i] = st, b
		}
	}
	check := func(base int) func(c, i int) {
		return func(c, i int) {
			j := base + i
			msg := checkAnswer(&in.reqs[j], status[j], bodies[j], in, refs)
			bodies[j] = nil
			mu.Lock()
			rc.attempted++
			if msg != "" {
				rc.fail("%s %s: %s", reqKindNames[in.reqs[j].kind], in.reqs[j].path, msg)
			}
			mu.Unlock()
		}
	}

	k0, err := d.scrape()
	if err != nil {
		return err
	}
	alloc0, err := d.totalAlloc()
	if err != nil {
		return err
	}

	// Phase 1: the open loop at the pinned rate.
	openClock := wallClock{time.Now()}
	open := runLoad(openClock, in.due, 0, cfg.conns, 0, send(0), check(0))
	k1, err := d.scrape()
	if err != nil {
		return err
	}
	// Each request's latency from its due time, in milliseconds.
	var lat, lag []float64
	kindLat := make([][]float64, numReqKinds)
	var httpNs int64
	for i := range open.sent {
		l := float64(open.latency(i, in.due)) / 1e6
		lat = append(lat, l)
		kindLat[in.reqs[i].kind] = append(kindLat[in.reqs[i].kind], l)
		if open.lag[i] > 0 {
			lag = append(lag, float64(open.lag[i])/1e6)
		}
		httpNs += int64(open.end[i] - open.start[i])
	}
	newAdds := 0
	for i := 0; i < openN; i++ {
		if in.reqs[i].kind == reqAdd && !in.reqs[i].wantDup {
			newAdds++
		}
	}

	// Phase 2: saturation, closed loop on the same connections. It gives
	// the end-to-end numbers, each request timed from its send. The open
	// loop's tail, timed from the due time, is set by the requests queued
	// behind indexd's garbage-collection stalls and moves with the
	// machine's speed by more than its bound (README); it is the per-layer
	// indexd.open_p99_ms. Spans are made afterwards from timestamps every
	// run takes, so a traced run does no extra work here and reports no
	// tracing overhead.
	satReqs := len(in.reqs) - openN
	satPhase := time.Duration(rc.seconds * (1 - cfg.openShare) * float64(time.Second))
	sat := runLoad(wallClock{time.Now()}, nil, satReqs, cfg.conns, satPhase, send(openN), check(openN))
	// ops_per_s is the median of the phase's slices' completion rates, so
	// one compaction or garbage-collection burst does not set it.
	slice := satPhase / satSlices
	perSlice := make([]float64, satSlices)
	var satLat []float64
	for i, sent := range sat.sent {
		if !sent {
			continue
		}
		satLat = append(satLat, float64(sat.latency(i, nil))/1e6)
		if in.reqs[openN+i].kind == reqAdd && !in.reqs[openN+i].wantDup {
			newAdds++
		}
		if k := int(sat.end[i] / slice); k < satSlices {
			perSlice[k]++
		}
	}
	done := len(satLat)
	if done == satReqs {
		rc.invalid = fmt.Sprintf("saturation ran out of its %d requests; raise satRate", satReqs)
	}
	measured := openN + done

	// Let the write-behind persists of the new classes finish, so the
	// last scrape sees every tree rebuild the measured phases caused.
	k2, err := waitPersists(d, k0, newAdds)
	if err != nil {
		return err
	}
	alloc1, err := d.totalAlloc()
	if err != nil {
		return err
	}
	// Each new class's write-behind persist rebuilds its tree once (unless
	// the queue dropped it); any other rebuild is a query that missed.
	all := k2.minus(k0)
	rc.checks["query_tree_rebuilds"] = int64(all.c["tree_rebuilds"] - float64(newAdds) + all.c["treestore_persist_dropped"])
	rc.checks["http_throttled"] = int64(all.c["http_throttled"])
	rc.checks["truncations"] = int64(all.c["truncations"])

	// Generator lateness: a run whose timer fired late is not a valid
	// measurement of the system (it measures the generator).
	lagP99, pct, ok := tailPercentile(lag)
	rc.samples["lag"], rc.samples["lag_pct"], rc.samples["lag_tail_ms"] = float64(len(lag)), pct, lagP99
	if ok && lagP99 > cfg.maxLagMs {
		rc.invalid = fmt.Sprintf("load generator timer p%g lateness %.3f ms > %.1f ms", pct, lagP99, cfg.maxLagMs)
	}

	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var stats struct {
		Index struct{ Graphs int } `json:"index"`
	}
	if st, b, err := d.do("GET", "/stats", nil); err != nil || st != 200 || json.Unmarshal(b, &stats) != nil {
		return fmt.Errorf("/stats: status %d: %v", st, err)
	}
	stopErr := d.stop()
	d = nil
	if stopErr != nil {
		return stopErr
	}
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return err
	}

	if !rc.traced {
		rc.m["ops_per_s"] = median(perSlice) / slice.Seconds()
		rc.m["peak_rss_mb"] = rss
		rc.m["alloc_kb_per_op"] = (alloc1 - alloc0) / 1024 / float64(measured)
		return rc.latencies(satLat)
	}

	// Per-layer numbers come from the open loop: spans from this side,
	// counters and phase totals from indexd's /metrics around it.
	n := float64(openN)
	at := rc.tr.at(openClock.origin)
	for i := range open.sent {
		due, s, e := at+int64(in.due[i]), at+int64(open.start[i]), at+int64(open.end[i])
		rc.tr.record(int32(i), due, e, part{layerLoadgen, due, s}, part{layerIndexd, s, e})
	}
	self := rc.selfTimeMetrics(n)
	k := k1.minus(k0)
	programMetrics(rc.m, k, n, 1, 0, 0)
	// The open loop's new classes may still be persisting at its end, so
	// rebuilds are counted over both phases, as the validity check does.
	rc.m["treestore.rebuilds"] = float64(rc.checks["query_tree_rebuilds"])
	rc.m["core.build_ms_per_op"] = k.phaseNs["build"] / 1e6 / n
	adds := 0.0
	for i := 0; i < openN; i++ {
		if in.reqs[i].kind == reqAdd {
			adds++
		}
	}
	rc.m["indexd.build_ms_per_add"] = ratio(k.phaseNs["build"]/1e6, adds)
	server := ratio(k.phaseNs["http_request"]/1e6, k.phaseN["http_request"])
	rc.m["indexd.server_ms_per_req"] = server
	rc.m["indexd.client_ms_per_req"] = float64(httpNs)/1e6/n - server
	if rc.m["indexd.open_p99_ms"], err = percentile(lat, 99); err != nil {
		return fmt.Errorf("indexd.open_p99_ms: %w", err)
	}
	for kind, name := range map[uint8]string{reqAdd: "add", reqLookup: "lookup", reqOrbits: "orbits", reqSSM: "ssm"} {
		v, pct, _ := tailPercentile(kindLat[kind])
		rc.m["indexd."+name+"_tail_ms"] = v
		rc.samples[name], rc.samples[name+"_tail_pct"] = float64(len(kindLat[kind])), pct
	}
	rc.m["loadgen.queue_ms_per_req"] = float64(self[layerLoadgen]) / 1e6 / n
	rc.m["loadgen.lag_p99_ms"] = lagP99
	rc.m["store.disk_bytes_per_graph"] = float64(diskBytes) / float64(stats.Index.Graphs)
	rc.counters = deterministic(k.c)
	return nil
}

// preload sends the preload stream through /bulk and waits until every
// new class's tree is persisted, so the measured phases start warm.
func preload(d *daemon, in *serveInput) error {
	before, err := d.scrape()
	if err != nil {
		return err
	}
	st, b, err := d.do("POST", "/bulk", in.preload)
	if err != nil || st != 200 {
		return fmt.Errorf("/bulk: status %d: %v %s", st, err, b)
	}
	var rep struct {
		Applied    int `json:"applied"`
		NewClasses int `json:"new_classes"`
		Duplicates int `json:"duplicates"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("/bulk: %w", err)
	}
	if rep.Applied != in.graphs || rep.NewClasses != in.classes || rep.Duplicates != in.graphs-in.classes {
		return fmt.Errorf("/bulk: applied %d (%d new, %d duplicate), want %d (%d new)",
			rep.Applied, rep.NewClasses, rep.Duplicates, in.graphs, in.classes)
	}
	_, err = waitPersists(d, before, in.classes)
	return err
}

// waitPersists waits until indexd has persisted (or dropped) n tree
// records since the reading before, and returns the last reading.
func waitPersists(d *daemon, before counts, n int) (counts, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		k, err := d.scrape()
		if err != nil {
			return k, err
		}
		done := k.minus(before)
		if done.c["treestore_puts"]+done.c["treestore_persist_dropped"] >= float64(n) {
			return k, nil
		}
		if time.Now().After(deadline) {
			return k, fmt.Errorf("tree persists: %v of %d done after 60 s",
				done.c["treestore_puts"]+done.c["treestore_persist_dropped"], n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkAnswer returns "" when the response to req is right, else why not.
func checkAnswer(req *request, status int, body []byte, in *serveInput, refs []symRef) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	switch req.kind {
	case reqAdd:
		var r struct {
			ID        int  `json:"id"`
			Duplicate bool `json:"duplicate"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if r.Duplicate != req.wantDup {
			return fmt.Sprintf("duplicate=%v, want %v", r.Duplicate, req.wantDup)
		}
		if r.ID < in.graphs {
			return fmt.Sprintf("id %d reuses a preloaded id", r.ID)
		}
	case reqLookup:
		var r struct {
			IDs []int `json:"ids"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		if !reflect.DeepEqual(r.IDs, req.wantIDs) {
			return fmt.Sprintf("ids %v, want %v", r.IDs, req.wantIDs)
		}
	case reqOrbits, reqAutGroup, reqSSM:
		var r struct {
			Orbits [][]int `json:"orbits"`
			Order  string  `json:"order"`
			Count  string  `json:"count"`
			Images [][]int `json:"images"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err.Error()
		}
		a := symAnswer{orbits: r.Orbits, images: len(r.Images)}
		a.order, _ = new(big.Int).SetString(r.Order, 10)
		a.count, _ = new(big.Int).SetString(r.Count, 10)
		return checkSym(req.kind, req.pattern, &a, &refs[req.target])
	}
	return ""
}
