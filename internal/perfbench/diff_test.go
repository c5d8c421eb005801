package perfbench

import (
	"path/filepath"
	"testing"
)

func load(t *testing.T, name string) *File {
	t.Helper()
	f, err := ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return f
}

func diffFixtures(t *testing.T, oldName, newName string) *Result {
	t.Helper()
	res, err := Diff(load(t, oldName), load(t, newName), DefaultThresholds())
	if err != nil {
		t.Fatalf("Diff(%s, %s): %v", oldName, newName, err)
	}
	return res
}

func TestDiffSelfIsClean(t *testing.T) {
	res := diffFixtures(t, "base.json", "base.json")
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 || res.Improvements != 0 || res.Noise != 0 {
		t.Fatalf("self-diff: %+v", res)
	}
}

// TestDiffFlagsSlowedFixture is the acceptance gate: a deliberately
// slowed run (30% on every rep, minima confirming) must be flagged as a
// wall-time regression.
func TestDiffFlagsSlowedFixture(t *testing.T) {
	res := diffFixtures(t, "base.json", "slowed.json")
	if res.TimeRegressions != 1 {
		t.Fatalf("want 1 time regression, got %+v", res)
	}
	if res.CounterRegressions != 0 {
		t.Fatalf("unchanged counters flagged: %+v", res)
	}
	if v := res.Scenarios[0].Wall.Verdict; v != VerdictRegression {
		t.Fatalf("wall verdict = %s", v)
	}
}

func TestDiffFlagsCounterRegression(t *testing.T) {
	res := diffFixtures(t, "base.json", "counter_regress.json")
	// search_nodes 1149→2300 and truncations 0→1 both regress.
	if res.CounterRegressions != 2 {
		t.Fatalf("want 2 counter regressions, got %+v", res)
	}
	if res.TimeRegressions != 0 {
		t.Fatalf("unchanged wall flagged: %+v", res)
	}
	var metrics []string
	for _, cd := range res.Scenarios[0].Counters {
		metrics = append(metrics, cd.Metric)
		if cd.Verdict != VerdictRegression {
			t.Fatalf("counter %s verdict = %s", cd.Metric, cd.Verdict)
		}
	}
	if len(metrics) != 2 || metrics[0] != "search_nodes" || metrics[1] != "truncations" {
		t.Fatalf("regressed counters = %v", metrics)
	}
}

// TestDiffZeroToNonzeroCounter pins the old==0 edge: any growth from
// zero is a regression (ratio +Inf), not a divide-by-zero accident.
func TestDiffZeroToNonzeroCounter(t *testing.T) {
	res := diffFixtures(t, "base.json", "counter_regress.json")
	for _, cd := range res.Scenarios[0].Counters {
		if cd.Metric == "truncations" {
			if cd.Old != 0 || cd.New != 1 || cd.Verdict != VerdictRegression {
				t.Fatalf("truncations diff: %+v", cd)
			}
			return
		}
	}
	t.Fatal("truncations diff missing")
}

func TestDiffSeesImprovement(t *testing.T) {
	res := diffFixtures(t, "base.json", "improved.json")
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 {
		t.Fatalf("improvement flagged as regression: %+v", res)
	}
	if res.Improvements == 0 {
		t.Fatalf("no improvements seen: %+v", res)
	}
	if v := res.Scenarios[0].Wall.Verdict; v != VerdictImprovement {
		t.Fatalf("wall verdict = %s", v)
	}
}

// TestDiffNoiseNotConfirmedByMin: the median moved 58% but the best rep
// is unchanged — one slow outlier dragged the median, so the verdict
// must be noise, not regression.
func TestDiffNoiseNotConfirmedByMin(t *testing.T) {
	res := diffFixtures(t, "base.json", "noisy.json")
	if res.TimeRegressions != 0 {
		t.Fatalf("noisy run hard-flagged: %+v", res)
	}
	if v := res.Scenarios[0].Wall.Verdict; v != VerdictNoise {
		t.Fatalf("wall verdict = %s, want noise", v)
	}
	if res.Noise == 0 {
		t.Fatalf("noise not counted: %+v", res)
	}
}

// TestDiffTooFewReps: a 30% slowdown measured with only 2 reps degrades
// to noise — below MinReps no median is trusted.
func TestDiffTooFewReps(t *testing.T) {
	res := diffFixtures(t, "base.json", "two_reps.json")
	if res.TimeRegressions != 0 {
		t.Fatalf("under-repped run hard-flagged: %+v", res)
	}
	if v := res.Scenarios[0].Wall.Verdict; v != VerdictNoise {
		t.Fatalf("wall verdict = %s, want noise", v)
	}
}

func TestDiffRefusesModeMismatch(t *testing.T) {
	_, err := Diff(load(t, "base.json"), load(t, "full_mode.json"), DefaultThresholds())
	if err == nil {
		t.Fatal("quick-vs-full diff accepted")
	}
}

func TestDiffMissingScenario(t *testing.T) {
	oldF := load(t, "base.json")
	newF := load(t, "base.json")
	newF.Scenarios[0].Name = "zzz-new"
	res, err := Diff(oldF, newF, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingScenarios != 2 {
		t.Fatalf("want 2 one-sided scenarios, got %+v", res)
	}
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 {
		t.Fatalf("missing scenarios gated: %+v", res)
	}
}

// TestSpeedupGateTiers pins the gate's worker-count tiers: single-core
// runs are skipped (there is no parallelism to measure on that
// machine), small machines warn, 4+ workers fail below 1.3x, and 8+
// workers additionally warn below 2.0x.
func TestSpeedupGateTiers(t *testing.T) {
	mk := func(workers int, speedup float64) Scenario {
		return Scenario{
			Name: "par-x", ParWorkers: workers,
			ParSerialNs: 1000, ParParallelNs: 1000, ParSpeedup: speedup,
		}
	}
	cases := []struct {
		name    string
		sc      Scenario
		issues  int
		failing bool
	}{
		{"no par fields", Scenario{Name: "cfi"}, 0, false},
		{"single core skipped", mk(1, 1.0), 0, false},
		{"two workers slow warns", mk(2, 1.1), 1, false},
		{"two workers ok", mk(2, 1.5), 0, false},
		{"four workers slow fails", mk(4, 1.2), 1, true},
		{"eight workers mediocre warns", mk(8, 1.7), 1, false},
		{"eight workers ok", mk(8, 2.5), 0, false},
	}
	for _, tc := range cases {
		f := &File{Scenarios: []Scenario{tc.sc}}
		issues := SpeedupGate(f)
		if len(issues) != tc.issues {
			t.Fatalf("%s: %d issues (%+v), want %d", tc.name, len(issues), issues, tc.issues)
		}
		if tc.issues > 0 && issues[0].Fail != tc.failing {
			t.Fatalf("%s: fail=%v, want %v (%s)", tc.name, issues[0].Fail, tc.failing, issues[0].Why)
		}
	}
}

// TestParFixtureRoundTrips: the par_* fields survive the strict decode
// and validation, and a baseline without them still reads (base.json
// has no par scenarios — the omitempty contract).
func TestParFixtureRoundTrips(t *testing.T) {
	f := load(t, "par_slow.json")
	var par *Scenario
	for i := range f.Scenarios {
		if f.Scenarios[i].ParWorkers != 0 {
			par = &f.Scenarios[i]
		}
	}
	if par == nil || par.ParWorkers != 8 || par.ParSpeedup != 1.11 {
		t.Fatalf("par scenario not decoded: %+v", par)
	}
	if _, err := Diff(load(t, "base.json"), f, DefaultThresholds()); err != nil {
		t.Fatalf("diff against par-less baseline: %v", err)
	}
}

func TestReadRejectsBadSchemaFixture(t *testing.T) {
	if _, err := ReadFile(filepath.Join("testdata", "bad_schema.json")); err == nil {
		t.Fatal("schema 99 fixture accepted")
	}
}

// TestCommittedBaseline pins the repo's committed artifact: it must
// stay schema-valid and self-diff clean, or the CI gate is comparing
// against garbage.
func TestCommittedBaseline(t *testing.T) {
	f, err := ReadFile(filepath.Join("..", "..", "results", "BENCH_PR20.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if f.Mode != ModeQuick {
		t.Fatalf("committed baseline mode = %s, want quick (the CI configuration)", f.Mode)
	}
	res, err := Diff(f, f, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeRegressions != 0 || res.CounterRegressions != 0 {
		t.Fatalf("baseline self-diff: %+v", res)
	}
}
