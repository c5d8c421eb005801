package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples: want a refusal (9 samples beyond it)")
	}
	p99, err := percentile(seq(1000), 99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p99, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 of no samples: want a refusal")
	}
	v, pct, ok := tailPercentile(seq(200))
	if !ok || pct != 95 || v != 190 {
		t.Fatalf("tail of 200 samples = p%v %v (ok %v); want p95 190", pct, v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread definition the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeClock is a load-generator clock that moves only when told to, or
// when a sender sleeps until a later time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = max(c.now, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// TestOpenLoopTimesFromDue checks that an open loop charges a stall to
// every request queued behind it: request 0 takes 10 ms, so requests due
// at 1, 2 and 3 ms are sent late, and their latency counts from when
// they were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 50 * ms}
	send := func(_, i int) {
		if i == 0 {
			clk.advance(10 * ms)
		} else {
			clk.advance(ms / 10)
		}
	}
	l := runLoad(clk, due, 0, 1, 0, send, nil)
	want := []time.Duration{10 * ms, 9100 * time.Microsecond, 8200 * time.Microsecond, 7300 * time.Microsecond, ms / 10}
	for i, w := range want {
		if !l.sent[i] {
			t.Fatalf("request %d not sent", i)
		}
		if got := l.latency(i, due); got != w {
			t.Errorf("open loop: request %d latency %v, want %v", i, got, w)
		}
	}
	if got := l.end[4] - l.start[4]; got != ms/10 {
		t.Errorf("request 4 service time %v, want 100µs", got)
	}

	// A closed loop times each request from its own send.
	clk = &fakeClock{}
	l = runLoad(clk, nil, 3, 1, time.Hour, send, nil)
	for i, w := range []time.Duration{10 * ms, ms / 10, ms / 10} {
		if got := l.latency(i, nil); got != w {
			t.Errorf("closed loop: request %d latency %v, want %v", i, got, w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// Root [0,100] with children [10,40] and [30,60] (overlapping: the
	// union covers 50) and [90,120] (clipped to the root at 100): the root
	// keeps 100 - 60 = 40.
	spans := []span{
		{ID: 0, Parent: -1, Layer: layerOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerGraph, Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: layerCore, Start: 30, End: 60},
		{ID: 3, Parent: 0, Layer: layerIndex, Start: 90, End: 120},
		// A grandchild inside span 2 takes its time out of span 2 only.
		{ID: 4, Parent: 2, Layer: layerIndex, Start: 35, End: 45},
	}
	self, roots := selfTimes(spans)
	want := map[uint8]int64{layerOp: 40, layerGraph: 30, layerCore: 20, layerIndex: 30 + 10}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", layerNames[l], self[l], w)
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}

	// Spans recorded through the tracer: disjoint parts inside the root,
	// so the self times add up to the root's duration exactly.
	tr := newTracer(6)
	tr.record(7, 100, 200, part{layerGraph, 100, 130}, part{layerCore, 130, 190})
	tr.record(8, 300, 310, part{layerCore, 300, 310})
	tr.record(9, 0, 1, part{layerCore, 0, 1}, part{layerCore, 0, 1}) // does not fit: dropped whole
	self, roots = selfTimes(tr.spans())
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 110 || self[layerOp] != 10 || self[layerCore] != 70 || roots != 2 {
		t.Errorf("tracer spans: self %v (total %d), roots %d; want total 110, unattributed 10, core 70, 2 roots", self, total, roots)
	}
	if tr.dropped != 3 {
		t.Errorf("dropped = %d, want 3", tr.dropped)
	}
	var none *tracer
	none.record(1, 0, 1) // a nil tracer records nothing
	if none.now() != 0 {
		t.Error("nil tracer read the clock")
	}
}

// inputsOf renders every generated input of one seed as bytes: what the
// program would receive, in order.
func inputsOf(t *testing.T, cfg config, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	hc, err := genHardCanon(cfg.hc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, op := range hc.pass {
		b.WriteString(op.g6 + "\n")
	}
	out["hard-canon"] = append([]byte(nil), b.Bytes()...)

	b.Reset()
	for _, r := range genIngest(cfg.si, seed).records {
		b.WriteString(r + "\n")
	}
	out["social-ingest"] = append([]byte(nil), b.Bytes()...)

	sv := genServe(cfg.sm, seed, 1)
	b.Reset()
	b.Write(sv.preload)
	for i, r := range sv.reqs {
		b.WriteString(r.path)
		b.Write(r.body)
		if i < len(sv.due) {
			b.WriteString(" @" + sv.due[i].String())
		}
		b.WriteByte('\n')
	}
	out["serve-mixed"] = append([]byte(nil), b.Bytes()...)

	sq, err := genSymq(cfg.sq, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for _, g := range sq.graphs {
		b.WriteString(encodeGraph6(g, nil) + "\n")
	}
	js, _ := json.Marshal(sq.patterns)
	b.Write(js)
	for _, qs := range sq.cycles {
		for _, q := range qs {
			fmt.Fprintf(&b, "%d %d %d;", q.kind, q.class, q.pattern)
		}
	}
	out["symq-cold"] = b.Bytes()
	return out
}

func TestSeedDeterminism(t *testing.T) {
	cfg := smokeConfig()
	a, again, other := inputsOf(t, cfg, 1), inputsOf(t, cfg, 1), inputsOf(t, cfg, 2)
	for name, in := range a {
		if !bytes.Equal(in, again[name]) {
			t.Errorf("%s: seed 1 twice gave different inputs", name)
		}
		if bytes.Equal(in, other[name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestZipfQuotaCoversEveryRank(t *testing.T) {
	q := zipfQuota(1000, 368, 1.05)
	sum := 0
	for k, n := range q {
		if n < 1 {
			t.Fatalf("rank %d gets no query", k)
		}
		if k > 0 && n > q[k-1] {
			t.Fatalf("rank %d gets more queries (%d) than rank %d (%d)", k, n, k-1, q[k-1])
		}
		sum += n
	}
	if sum != 1000 {
		t.Fatalf("quota sums to %d, want 1000", sum)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics this command reports the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, dvbench reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), dvbench %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, dvbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a dvbench workload", w.Name)
		}
	}
}

// buildIndexd builds the indexd binary serve-mixed drives.
func buildIndexd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "indexd")
	cmd := exec.Command("go", "build", "-o", bin, "dvicl/cmd/indexd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build indexd: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeWorkloads runs every workload end to end at tiny sizes,
// untraced and traced, and checks that a deliberately wrong reference
// answer fails the run.
func TestSmokeWorkloads(t *testing.T) {
	indexd := buildIndexd(t)
	for _, name := range []string{"hard-canon", "social-ingest", "serve-mixed", "symq-cold"} {
		t.Run(name, func(t *testing.T) {
			work := t.TempDir()
			run := func(cfg config, trace string) (int, summary, string) {
				var stdout, stderr bytes.Buffer
				code := runMain([]string{"-workload", name, "-seed", "3", "-seconds", "1",
					"-trace", trace, "-work", work, "-indexd", indexd}, cfg, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var s summary
				if code != 2 {
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
						t.Fatalf("trace %s: last line %q: %v\n%s", trace, lines[len(lines)-1], err, stderr.String())
					}
				}
				return code, s, stderr.String()
			}
			for _, trace := range []string{"0", "1"} {
				code, s, log := run(smokeConfig(), trace)
				if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("trace %s: exit %d, correct %v, %d of %d failed\n%s", trace, code, s.Correct, s.Failed, s.Attempted, log)
				}
				want := endToEnd
				if trace != "0" {
					want = perLayer
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics, want %d", trace, len(s.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := s.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace %s: metric %s missing or in the wrong unit: %+v", trace, d.name, m)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if s.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, s.Metrics[d.name].Value)
						}
					}
					continue
				}
				var doc struct {
					SelfMs map[string]float64 `json:"self_ms"`
					Spans  []span             `json:"spans"`
				}
				b, err := os.ReadFile(filepath.Join(work, "trace-"+name+"-3.json"))
				if err == nil {
					err = json.Unmarshal(b, &doc)
				}
				if err != nil || len(doc.Spans) == 0 {
					t.Fatalf("span file: %v (%d spans)", err, len(doc.Spans))
				}
				var roots, self float64
				for _, sp := range doc.Spans {
					if sp.Parent < 0 {
						roots += float64(sp.End-sp.Start) / 1e6
					}
				}
				for _, v := range doc.SelfMs {
					self += v
				}
				if math.Abs(roots-self) > 1e-6*roots {
					t.Errorf("layer self times sum to %v ms, op wall time is %v ms", self, roots)
				}
			}

			bad := smokeConfig()
			bad.corruptRef = true
			if code, s, _ := run(bad, "0"); code != 1 || s.Correct || s.Failed == 0 {
				t.Errorf("wrong reference answer: exit %d, correct %v, failed %d; want exit 1, incorrect", code, s.Correct, s.Failed)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	runs := func(vals ...float64) map[int64]float64 {
		out := map[int64]float64{}
		for i, v := range vals {
			out[int64(i+1)] = v
		}
		return out
	}
	parent := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change map[int64]float64
		claim  bool
		want   string
	}{
		{"same", runs(100, 100, 101, 99, 100, 101, 99, 100, 100, 100), false, unchanged},
		{"slower beyond bound", runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, regressed},
		{"noisy", runs(60, 140, 100, 70, 130, 100, 65, 135, 100, 100), false, unresolved},
		{"faster, claimed", runs(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), true, improved},
		{"faster, too few pairs", runs(110, 111, 109), true, unchanged},
	} {
		if got, detail := metricVerdict(m, parent, c.change, c.claim); got != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got, detail, c.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	write := func(dir string, seed int64, ops float64) {
		r := record{Workload: "hard-canon", Env: environment{Seed: seed}, Valid: true,
			summary: summary{Correct: true, Attempted: 1, Metrics: map[string]metricVal{"ops_per_s": {ops, "1/s"}}}}
		b, _ := json.Marshal(r)
		if err := os.WriteFile(filepath.Join(dir, "hard-canon-"+string(rune('a'+seed))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < 10; s++ {
		write(dirA, s, 100+float64(s%3))
		write(dirB, s, 70+float64(s%3))
	}
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := compareMain([]string{"-spec", spec, dirA, dirB}, &out, &errb); code != 1 || !strings.Contains(out.String(), "hard-canon     regressed") {
		t.Fatalf("compare: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := compareMain([]string{"-spec", spec, dirA, dirA}, &out, &errb); code != 0 || !strings.Contains(out.String(), "hard-canon     unchanged") {
		t.Fatalf("compare with itself: exit %d\n%s", code, out.String())
	}
}

func TestTraceFlagIsZeroOrOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"-workload", "hard-canon", "-trace", "spans.json", "-work", t.TempDir()}, smokeConfig(), &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 {
		t.Fatalf("-trace spans.json: exit %d, stdout %q; want usage error 2 and no result", code, stdout.String())
	}
}

func TestPeakRSS(t *testing.T) {
	mb, err := peakRSSMB(0)
	if err != nil || mb <= 0 {
		t.Fatalf("peakRSSMB = %v, %v", mb, err)
	}
	if !reflect.DeepEqual(deterministic(map[string]float64{"sched_steals": 3, "search_nodes": 5}), map[string]int64{"search_nodes": 5}) {
		t.Error("deterministic kept a scheduler counter")
	}
}
