package obs

import (
	"strings"
	"testing"
	"time"
)

// promFixture builds a recorder with activity in several counters and
// phases, plus a realistic gauge set (including a labeled per-shard
// family), and renders it.
func promFixture(t *testing.T) string {
	t.Helper()
	r := New()
	r.Inc(SearchNodes)
	r.Add(SearchLeaves, 3)
	r.Inc(HTTPRequests)
	r.observeNs(PhaseBuild, 0) // genuine 0ns lands in the first bucket
	r.observeNs(PhaseBuild, 1500)
	r.observeNs(PhaseBuild, 1700)
	r.observeNs(PhaseBuild, int64(3*time.Millisecond))
	r.observeNs(PhaseIndexAdd, 42)
	gauges := []PromGauge{
		{Name: "index_graphs", Help: "Graphs in the index.", Value: 12},
		{Name: "uptime_seconds", Help: "Seconds since start.", Value: 3.5},
		{Name: "index_shard_graphs", Help: "Graphs per shard.", Labels: []Label{{Name: "shard", Value: "0"}}, Value: 7},
		{Name: "index_shard_graphs", Help: "Graphs per shard.", Labels: []Label{{Name: "shard", Value: "1"}}, Value: 5},
	}
	var sb strings.Builder
	if err := WriteProm(&sb, r.Snapshot(), gauges); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return sb.String()
}

// TestWritePromLintClean is the headline contract: everything WriteProm
// emits passes the vendored promtool-style linter.
func TestWritePromLintClean(t *testing.T) {
	text := promFixture(t)
	if problems := LintProm(text); len(problems) != 0 {
		t.Fatalf("LintProm found %d problems in WriteProm output:\n%s\n--- exposition ---\n%s",
			len(problems), strings.Join(problems, "\n"), text)
	}
}

func TestWritePromCountersIncludeZeros(t *testing.T) {
	text := promFixture(t)
	// Every declared counter appears, zeros included, namespaced and
	// suffixed _total, with HELP and TYPE.
	for c := Counter(0); c < numCounters; c++ {
		name := "dvicl_" + c.String() + "_total"
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Errorf("counter sample %s missing", name)
		}
		if !strings.Contains(text, "# TYPE "+name+" counter\n") {
			t.Errorf("TYPE line for %s missing", name)
		}
		if !strings.Contains(text, "# HELP "+name+" ") {
			t.Errorf("HELP line for %s missing", name)
		}
	}
	if !strings.Contains(text, "dvicl_refine_calls_total 0\n") {
		t.Error("zero counter must still be exposed with value 0")
	}
	if !strings.Contains(text, "dvicl_search_leaves_total 3\n") {
		t.Error("search_leaves should be 3")
	}
}

func TestWritePromHistogram(t *testing.T) {
	text := promFixture(t)
	var bucketVals []int64
	var infVal, countVal int64 = -1, -1
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, `dvicl_phase_duration_seconds_bucket{phase="build",le="+Inf"}`):
			infVal = lastInt(t, line)
		case strings.HasPrefix(line, `dvicl_phase_duration_seconds_bucket{phase="build",`):
			bucketVals = append(bucketVals, lastInt(t, line))
		case strings.HasPrefix(line, `dvicl_phase_duration_seconds_count{phase="build"}`):
			countVal = lastInt(t, line)
		}
	}
	if len(bucketVals) == 0 {
		t.Fatalf("no build buckets in:\n%s", text)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("buckets not cumulative: %v", bucketVals)
		}
	}
	if infVal != 4 || countVal != 4 {
		t.Fatalf("+Inf = %d, _count = %d, want 4 and 4", infVal, countVal)
	}
	if last := bucketVals[len(bucketVals)-1]; last != 4 {
		t.Fatalf("largest finite bucket = %d, want 4 (all observations below it)", last)
	}
	// The 0ns observation lands in the le="1e-09" bucket.
	if !strings.Contains(text, `dvicl_phase_duration_seconds_bucket{phase="build",le="1e-09"} 1`) {
		t.Errorf("0ns observation missing from the 1e-09 bucket:\n%s", text)
	}
	// A phase that never fired exposes no series.
	if strings.Contains(text, `phase="wal_append"`) {
		t.Error("unfired phase must not be exposed")
	}
	// HELP/TYPE written exactly once for the whole family.
	if n := strings.Count(text, "# TYPE dvicl_phase_duration_seconds histogram"); n != 1 {
		t.Errorf("histogram TYPE line count = %d, want 1", n)
	}
}

func TestWritePromGauges(t *testing.T) {
	text := promFixture(t)
	if !strings.Contains(text, `dvicl_index_shard_graphs{shard="0"} 7`) ||
		!strings.Contains(text, `dvicl_index_shard_graphs{shard="1"} 5`) {
		t.Fatalf("per-shard gauge samples missing:\n%s", text)
	}
	if n := strings.Count(text, "# TYPE dvicl_index_shard_graphs gauge"); n != 1 {
		t.Errorf("shard gauge TYPE count = %d, want 1 (one header per family)", n)
	}
	if !strings.Contains(text, "dvicl_uptime_seconds 3.5\n") {
		t.Errorf("unlabeled gauge missing:\n%s", text)
	}
	// Families are contiguous: both shard samples sit between their header
	// and the next HELP line.
	i := strings.Index(text, "# TYPE dvicl_index_shard_graphs gauge")
	rest := text[i:]
	if j := strings.Index(rest[1:], "# HELP"); j >= 0 {
		if got := strings.Count(rest[:j+1], "dvicl_index_shard_graphs{"); got != 2 {
			t.Errorf("shard family not contiguous: %d samples before next family", got)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		`has"quote`:     `has\"quote`,
		`back\slash`:    `back\\slash`,
		"new\nline":     `new\nline`,
		`both\"` + "\n": `both\\\"\n`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLintPromNegatives feeds the linter hand-built violations — each
// must be caught, or the "WriteProm output is lint-clean" test proves
// nothing.
func TestLintPromNegatives(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of some reported problem
	}{
		{"missing namespace",
			"# HELP foo_x_total x.\n# TYPE foo_x_total counter\nfoo_x_total 1\n",
			"namespace"},
		{"sample before TYPE",
			"dvicl_x_total 1\n",
			"before TYPE"},
		{"missing HELP",
			"# TYPE dvicl_x_total counter\ndvicl_x_total 1\n",
			"no HELP"},
		{"counter without _total",
			"# HELP dvicl_x x.\n# TYPE dvicl_x counter\ndvicl_x 1\n",
			"_total"},
		{"negative counter",
			"# HELP dvicl_x_total x.\n# TYPE dvicl_x_total counter\ndvicl_x_total -1\n",
			"negative counter"},
		{"bad metric name",
			"# HELP dvicl_x_total x.\n# TYPE dvicl_x_total counter\ndvicl_x-total 1\n",
			"invalid metric name"},
		{"unparseable value",
			"# HELP dvicl_x_total x.\n# TYPE dvicl_x_total counter\ndvicl_x_total pots\n",
			"unparseable value"},
		{"sample without value",
			"# HELP dvicl_g g.\n# TYPE dvicl_g gauge\ndvicl_g{a=\"b\"}\n",
			"without value"},
		{"duplicate TYPE",
			"# TYPE dvicl_x_total counter\n# TYPE dvicl_x_total counter\n",
			"duplicate TYPE"},
		{"unknown TYPE",
			"# TYPE dvicl_x_total widget\n",
			"unknown TYPE"},
		{"empty HELP",
			"# HELP dvicl_x_total\n",
			"empty HELP"},
		{"non-cumulative buckets",
			"# HELP dvicl_h h.\n# TYPE dvicl_h histogram\n" +
				`dvicl_h_bucket{le="0.1"} 5` + "\n" +
				`dvicl_h_bucket{le="0.2"} 3` + "\n" +
				`dvicl_h_bucket{le="+Inf"} 5` + "\n" +
				"dvicl_h_count 5\n",
			"non-cumulative"},
		{"non-increasing le",
			"# HELP dvicl_h h.\n# TYPE dvicl_h histogram\n" +
				`dvicl_h_bucket{le="0.2"} 1` + "\n" +
				`dvicl_h_bucket{le="0.1"} 2` + "\n" +
				`dvicl_h_bucket{le="+Inf"} 2` + "\n",
			"non-increasing"},
		{"missing +Inf",
			"# HELP dvicl_h h.\n# TYPE dvicl_h histogram\n" +
				`dvicl_h_bucket{le="0.1"} 1` + "\n" +
				"dvicl_h_count 1\n",
			`missing le="+Inf"`},
		{"+Inf disagrees with count",
			"# HELP dvicl_h h.\n# TYPE dvicl_h histogram\n" +
				`dvicl_h_bucket{le="0.1"} 1` + "\n" +
				`dvicl_h_bucket{le="+Inf"} 1` + "\n" +
				"dvicl_h_count 2\n",
			"!= _count"},
		{"bucket after +Inf",
			"# HELP dvicl_h h.\n# TYPE dvicl_h histogram\n" +
				`dvicl_h_bucket{le="+Inf"} 1` + "\n" +
				`dvicl_h_bucket{le="0.1"} 1` + "\n" +
				"dvicl_h_count 1\n",
			`after le="+Inf"`},
		{"bad label name",
			"# HELP dvicl_g g.\n# TYPE dvicl_g gauge\n" +
				`dvicl_g{9bad="x"} 1` + "\n",
			"invalid label name"},
		{"unquoted label value",
			"# HELP dvicl_g g.\n# TYPE dvicl_g gauge\n" +
				"dvicl_g{a=b} 1\n",
			"unquoted label value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := LintProm(tc.text)
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("want a problem containing %q, got %v", tc.want, problems)
		})
	}
}

func lastInt(t *testing.T, line string) int64 {
	t.Helper()
	fs := strings.Fields(line)
	var v int64
	for _, c := range fs[len(fs)-1] {
		if c < '0' || c > '9' {
			t.Fatalf("non-integer value in %q", line)
		}
		v = v*10 + int64(c-'0')
	}
	return v
}
