// Package bench is the harness that regenerates every table of the
// paper's evaluation (Section 7): workload construction, timing and
// memory measurement, the six-algorithm comparison (nauty/bliss/traces
// emulations and DviCL+X), SSM on influence-maximization seed sets, and
// subgraph clustering. cmd/benchtables prints the tables; bench_test.go
// wraps them as testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvicl/internal/obs"
)

// Measurement is one timed run.
type Measurement struct {
	Time time.Duration
	// PeakMB is the sampled peak heap during the run, in MiB (the
	// analogue of the paper's max-memory column; we sample the Go heap
	// rather than RSS, so only relative comparisons are meaningful).
	PeakMB float64
	// Allocs and Bytes are the heap allocation count and total allocated
	// bytes of the run (runtime.MemStats deltas). The background heap
	// sampler contributes a handful of allocations, so tiny runs carry a
	// small constant overhead; the perfbench suite gates on these with a
	// relative tolerance, never exactly.
	Allocs int64
	Bytes  int64
	// TimedOut marks a run that exceeded its whole-run timeout (printed
	// as "-", like the paper's two-hour timeouts).
	TimedOut bool
}

// Measure runs fn while sampling heap usage. fn reports whether it
// completed (false = it exceeded its timeout).
func Measure(fn func() bool) Measurement {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > atomic.LoadUint64(&peak) {
					atomic.StoreUint64(&peak, ms.HeapAlloc)
				}
			}
		}
	}()

	start := time.Now()
	ok := fn()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	p := atomic.LoadUint64(&peak)
	if final.HeapAlloc > p {
		p = final.HeapAlloc
	}
	used := float64(0)
	if p > base.HeapAlloc {
		used = float64(p-base.HeapAlloc) / (1 << 20)
	}
	return Measurement{
		Time:     elapsed,
		PeakMB:   used,
		Allocs:   int64(final.Mallocs - base.Mallocs),
		Bytes:    int64(final.TotalAlloc - base.TotalAlloc),
		TimedOut: !ok,
	}
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Snapshots, when a table instruments its runs, holds the obs
	// snapshot of every run of row i, keyed by run label (e.g. "dvicl",
	// "nauty", "dvicl+bliss"). It parallels Rows; nil entries (or a nil
	// slice) mean the table was not instrumented. The snapshots ride
	// along into WriteJSON so BENCH_*.json rows carry search-effort
	// counters next to wall times.
	Snapshots []map[string]obs.Snapshot
}

// rowJSON is one table row in the JSON rendering: the printed cells keyed
// by header, plus the per-run counter snapshots when recorded.
type rowJSON struct {
	Cells    map[string]string       `json:"cells"`
	Counters map[string]obs.Snapshot `json:"counters,omitempty"`
}

// tableJSON is the machine-readable rendering of a Table.
type tableJSON struct {
	Title  string    `json:"title"`
	Header []string  `json:"header"`
	Rows   []rowJSON `json:"rows"`
}

// WriteJSON writes the table (cells plus any recorded counter snapshots)
// as indented JSON — the BENCH_*.json format cmd/benchtables emits so perf
// PRs can diff counters, not vibes.
func (t Table) WriteJSON(w io.Writer) error {
	out := tableJSON{Title: t.Title, Header: t.Header}
	for i, row := range t.Rows {
		r := rowJSON{Cells: make(map[string]string, len(row))}
		for j, cell := range row {
			if j < len(t.Header) {
				r.Cells[t.Header[j]] = cell
			}
		}
		if i < len(t.Snapshots) {
			r.Counters = t.Snapshots[i]
		}
		out.Rows = append(out.Rows, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Config controls how the tables run.
type Config struct {
	// Scale divides the paper's real-graph sizes (20 = 1/20 scale).
	Scale int
	// Timeout is the per-algorithm budget standing in for the paper's
	// two hours.
	Timeout time.Duration
	// MaxSubgraphs caps how many triangles/cliques Table 7 clusters.
	MaxSubgraphs int
	// Datasets restricts runs to the named datasets (nil = all).
	Datasets []string
}

// DefaultConfig is a laptop-scale setup: 1/20-size stand-ins and a
// 60-second timeout per algorithm run.
func DefaultConfig() Config {
	return Config{Scale: 20, Timeout: 60 * time.Second, MaxSubgraphs: 200000}
}

func (c Config) wants(name string) bool {
	if len(c.Datasets) == 0 {
		return true
	}
	for _, d := range c.Datasets {
		if strings.EqualFold(d, name) {
			return true
		}
	}
	return false
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

func fmtMB(mb float64) string {
	return fmt.Sprintf("%.1f", mb)
}

// fmtBig renders a big count the way the paper does: plain integers below
// a million, scientific notation above.
func fmtBig(s string) string {
	if len(s) <= 7 {
		return s
	}
	exp := len(s) - 1
	mantissa := s[:1] + "." + s[1:3]
	return fmt.Sprintf("%sE%d", mantissa, exp)
}
