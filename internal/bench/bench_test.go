package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyCfg keeps harness tests fast: 1/400-scale graphs, one dataset.
func tinyCfg(datasets ...string) Config {
	return Config{Scale: 400, Timeout: 5 * time.Second, MaxSubgraphs: 2000, Datasets: datasets}
}

func TestMeasureReportsCompletion(t *testing.T) {
	m := Measure(func() bool { return true })
	if m.TimedOut {
		t.Fatal("completed run marked timed out")
	}
	m = Measure(func() bool { return false })
	if !m.TimedOut {
		t.Fatal("truncated run not marked")
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
	}
	out := tb.Format()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "---") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestConfigDatasetFilter(t *testing.T) {
	cfg := Config{Datasets: []string{"WikiVote"}}
	if !cfg.wants("wikivote") {
		t.Fatal("filter should be case-insensitive")
	}
	if cfg.wants("Amazon") {
		t.Fatal("filter should exclude others")
	}
	if !(Config{}).wants("anything") {
		t.Fatal("empty filter should match all")
	}
}

func TestTable1Rows(t *testing.T) {
	tb := Table1(tinyCfg("wikivote", "Gnutella"))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if tb.Rows[0][0] != "Gnutella" && tb.Rows[0][0] != "wikivote" {
		t.Fatalf("unexpected first row %v", tb.Rows[0])
	}
}

func TestTable3Rows(t *testing.T) {
	tb := Table3(tinyCfg("wikivote"))
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 6 {
		t.Fatalf("rows = %v", tb.Rows)
	}
}

func TestTable5RowShape(t *testing.T) {
	tb := Table5(tinyCfg("wikivote"))
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// 1 name column + 6 algorithms × 2 cells.
	if len(tb.Rows[0]) != 13 {
		t.Fatalf("row width = %d, want 13", len(tb.Rows[0]))
	}
}

func TestTable6And7Run(t *testing.T) {
	t6 := Table6(tinyCfg("wikivote"))
	if len(t6.Rows) != 1 || len(t6.Rows[0]) != 5 {
		t.Fatalf("table6 rows = %v", t6.Rows)
	}
	t7 := Table7(tinyCfg("wikivote"))
	if len(t7.Rows) != 1 || len(t7.Rows[0]) != 7 {
		t.Fatalf("table7 rows = %v", t7.Rows)
	}
}

func TestFmtBig(t *testing.T) {
	if got := fmtBig("123"); got != "123" {
		t.Fatalf("fmtBig(123) = %q", got)
	}
	if got := fmtBig("8820000000000000"); got != "8.82E15" {
		t.Fatalf("fmtBig = %q", got)
	}
}

func TestTableSnapshotsInJSON(t *testing.T) {
	tb := Table3(tinyCfg("wikivote"))
	if len(tb.Snapshots) != len(tb.Rows) {
		t.Fatalf("snapshots = %d, rows = %d", len(tb.Snapshots), len(tb.Rows))
	}
	snap, ok := tb.Snapshots[0]["dvicl"]
	if !ok {
		t.Fatalf("no dvicl snapshot: %v", tb.Snapshots[0])
	}
	if snap.Counters["refine_calls"] == 0 {
		t.Fatal("instrumented build recorded no refinement")
	}

	var sb strings.Builder
	if err := tb.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"cells"`, `"counters"`, `"dvicl"`, `"refine_calls"`, `"phases"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("BENCH json missing %s:\n%.400s", want, out)
		}
	}
}

// TestTables2And4Exact: every benchmark-family build finishes or prints
// "-", so the rows it prints are exact. grid-w-3-20 and had-256 are
// vertex-transitive and refine to one cell: one orbit, no singleton, and
// a root-only AutoTree.
func TestTables2And4Exact(t *testing.T) {
	cfg := Config{Timeout: time.Minute, Datasets: []string{"grid-w-3-20", "had-256"}}
	t2 := Table2(cfg)
	if len(t2.Rows) != 2 {
		t.Fatalf("table 2 rows = %v", t2.Rows)
	}
	for _, row := range t2.Rows {
		if cells, singles := row[5], row[6]; cells != "1" || singles != "0" {
			t.Errorf("table 2 %s: cells %s, singleton %s; want 1, 0", row[0], cells, singles)
		}
	}
	t4 := Table4(cfg)
	if len(t4.Rows) != 2 {
		t.Fatalf("table 4 rows = %v", t4.Rows)
	}
	for _, row := range t4.Rows {
		if want := []string{row[0], "1", "0", "1"}; !slices.Equal(row[:4], want) || row[5] != "0" {
			t.Errorf("table 4 %s: %v, want a root-only tree", row[0], row)
		}
	}
}

// TestTable8TimeoutPrintsDash: a run that exceeds the timeout prints "-"
// for its time and memory, for X alone and for DviCL+X alike.
func TestTable8TimeoutPrintsDash(t *testing.T) {
	tb := Table8(Config{Timeout: time.Millisecond, Datasets: []string{"had-256"}})
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 13 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	for i, cell := range tb.Rows[0][1:] {
		if cell != "-" {
			t.Errorf("%s = %q, want -", tb.Header[i+1], cell)
		}
	}
}
