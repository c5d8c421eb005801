package perfbench

import (
	"bytes"
	"strings"
	"testing"

	"dvicl/internal/obs"
)

// validFile returns a minimal schema-valid file for mutation tests.
func validFile() *File {
	return &File{
		Schema: SchemaVersion, Tag: "t", Mode: ModeQuick,
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		Scenarios: []Scenario{
			{
				Name: "a", Reps: 3,
				WallNs: []int64{10, 11, 12}, MedianWallNs: 11,
				Allocs: 5, Bytes: 100,
				Counters: map[string]int64{"search_nodes": 7},
			},
			{
				Name: "b", Reps: 1,
				WallNs: []int64{9}, MedianWallNs: 9,
				Counters: map[string]int64{},
			},
		},
	}
}

func TestValidateAcceptsGoodFile(t *testing.T) {
	if err := Validate(validFile()); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
		want   string
	}{
		{"schema version", func(f *File) { f.Schema = 99 }, "unsupported schema"},
		{"empty tag", func(f *File) { f.Tag = "" }, "empty tag"},
		{"bad mode", func(f *File) { f.Mode = "fast" }, "bad mode"},
		{"no scenarios", func(f *File) { f.Scenarios = nil }, "no scenarios"},
		{"unsorted", func(f *File) { f.Scenarios[0].Name = "z" }, "not sorted"},
		{"duplicate", func(f *File) { f.Scenarios[1].Name = "a" }, "duplicate scenario"},
		{"zero reps", func(f *File) { f.Scenarios[0].Reps = 0 }, "reps 0"},
		{"wall count", func(f *File) { f.Scenarios[0].WallNs = f.Scenarios[0].WallNs[:2] }, "wall samples"},
		{"negative wall", func(f *File) { f.Scenarios[0].WallNs[0] = -1 }, "negative wall"},
		{"stale median", func(f *File) { f.Scenarios[0].MedianWallNs = 999 }, "does not match"},
		{"negative allocs", func(f *File) { f.Scenarios[0].Allocs = -1 }, "negative allocs"},
		{"nil counters", func(f *File) { f.Scenarios[0].Counters = nil }, "missing counters"},
		{"negative counter", func(f *File) { f.Scenarios[0].Counters["search_nodes"] = -1 }, "negative"},
		{"partial par record", func(f *File) { f.Scenarios[0].ParWorkers = 8 }, "partial parallel-speedup"},
		{"par speedup missing", func(f *File) {
			f.Scenarios[0].ParWorkers = 8
			f.Scenarios[0].ParSerialNs = 100
			f.Scenarios[0].ParParallelNs = 25
		}, "partial parallel-speedup"},
	}
	for _, tc := range cases {
		f := validFile()
		tc.mutate(f)
		err := Validate(f)
		if err == nil {
			t.Errorf("%s: mutation accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRoundTripSelfDiff is the core schema contract: encode → decode →
// diff-against-self must be a no-op diff (zero regressions, zero
// improvements, zero noise).
func TestRoundTripSelfDiff(t *testing.T) {
	f := validFile()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	res, err := Diff(f, got, DefaultThresholds())
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 || res.Improvements != 0 ||
		res.Noise != 0 || res.MissingScenarios != 0 {
		t.Fatalf("self-diff not a no-op: %+v", res)
	}
	for _, sd := range res.Scenarios {
		if sd.Wall.Verdict != VerdictOK || sd.Allocs.Verdict != VerdictOK || sd.Bytes.Verdict != VerdictOK {
			t.Fatalf("scenario %s self-diff verdicts: %+v", sd.Name, sd)
		}
		if len(sd.Counters) != 0 {
			t.Fatalf("scenario %s self-diff counter diffs: %+v", sd.Name, sd.Counters)
		}
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	f := validFile()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(buf.String(), `"schema": 1`, `"schema": 1, "surprise": true`, 1)
	if _, err := Read(strings.NewReader(doctored)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	f := validFile()
	f.Scenarios[0].MedianWallNs = 12345
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("Write accepted a file with a stale median")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 3, 2}, 2}, // (2+3)/2 integer division
		{[]int64{10, 10, 10, 10}, 10},
	}
	for _, tc := range cases {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRunGridW exercises the real suite machinery on the cheapest
// scenario: two reps of quick-mode grid-w, validated output, stable
// counters, and a full file round trip through WriteFile/ReadFile.
func TestRunGridW(t *testing.T) {
	f, err := Run(Options{Tag: "test", Quick: true, Reps: 2, Scenarios: []string{"grid-w"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(f.Scenarios) != 1 || f.Scenarios[0].Name != "grid-w" {
		t.Fatalf("scenario filter: got %+v", f.Scenarios)
	}
	sc := f.Scenarios[0]
	if sc.Reps != 2 || len(sc.WallNs) != 2 {
		t.Fatalf("reps: %+v", sc)
	}
	if sc.Counters["refine_calls"] == 0 {
		t.Fatalf("no refinement effort recorded: %v", sc.Counters)
	}
	if len(sc.PhasesNs) == 0 {
		t.Fatal("no phase totals recorded")
	}

	path := t.TempDir() + "/BENCH_test.json"
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	res, err := Diff(f, got, DefaultThresholds())
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 {
		t.Fatalf("round-trip self-diff found regressions: %+v", res)
	}
}

// TestRunDeterministicCounters runs the same scenario twice and checks
// the recorded counters agree — the property benchdiff's hard counter
// gate rests on.
func TestRunDeterministicCounters(t *testing.T) {
	opts := Options{Tag: "det", Quick: true, Reps: 1, Scenarios: []string{"grid-w"}}
	f1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := f1.Scenarios[0].Counters, f2.Scenarios[0].Counters
	if len(c1) != len(c2) {
		t.Fatalf("counter key sets differ: %d vs %d", len(c1), len(c2))
	}
	for name, v := range c1 {
		if c2[name] != v {
			t.Errorf("counter %s: %d vs %d", name, v, c2[name])
		}
	}
}

func TestStableCountersDropsVarying(t *testing.T) {
	r1, r2 := obs.New(), obs.New()
	r1.Add(obs.SearchNodes, 10)
	r2.Add(obs.SearchNodes, 10)
	r1.Add(obs.SchedSteals, 3)
	r2.Add(obs.SchedSteals, 5) // scheduler-dependent: must be dropped
	counters, dropped := stableCounters([]obs.Snapshot{r1.Snapshot(), r2.Snapshot()})
	if counters["search_nodes"] != 10 {
		t.Fatalf("stable counter lost: %v", counters)
	}
	if _, ok := counters["sched_steals"]; ok {
		t.Fatal("varying counter kept")
	}
	if len(dropped) != 1 || dropped[0] != "sched_steals" {
		t.Fatalf("dropped = %v", dropped)
	}
}

func TestScenarioNames(t *testing.T) {
	names := ScenarioNames()
	want := []string{"cfi", "grid-w", "had", "mz-aug", "par-cfi", "par-forest", "pg2", "social-ingest", "symq"}
	if len(names) != len(want) {
		t.Fatalf("suite = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("suite = %v, want %v", names, want)
		}
	}
}
