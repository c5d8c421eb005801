package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a Recorder
// snapshot plus caller-supplied gauges. Conventions enforced (and
// checked by LintProm, the vendored promtool-style linter):
//
//   - every metric is namespaced "dvicl_",
//   - counters end in "_total",
//   - phase timers render as one histogram family,
//     dvicl_phase_duration_seconds{phase="..."}, with cumulative
//     _bucket series (the log2 buckets mapped to le= upper bounds in
//     seconds), _sum and _count,
//   - every family has # HELP and # TYPE lines before its samples.

// MetricsNamespace prefixes every exposed metric name.
const MetricsNamespace = "dvicl"

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair.
type Label struct {
	Name  string
	Value string
}

// PromGauge is one caller-supplied gauge sample: Name is the metric name
// without the namespace prefix (e.g. "index_graphs"). Samples sharing a
// Name (e.g. per-shard series) must agree on Help.
type PromGauge struct {
	Name   string
	Help   string
	Labels []Label
	Value  float64
}

// WriteProm renders the snapshot and gauges in the Prometheus text
// exposition format. Counters appear in declaration order (all of them,
// including zeros, so the scrape target's series set is stable); phase
// histograms appear only for phases that fired (series are born with
// their first observation, the usual Prometheus idiom); gauges are
// sorted by name so multi-sample families stay contiguous.
func WriteProm(w io.Writer, s Snapshot, gauges []PromGauge) error {
	bw := bufio.NewWriter(w)
	for c := Counter(0); c < numCounters; c++ {
		name := MetricsNamespace + "_" + c.String() + "_total"
		fmt.Fprintf(bw, "# HELP %s %s\n", name, counterInfo[c].help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, s.Counters[c.String()])
	}

	histName := MetricsNamespace + "_phase_duration_seconds"
	wroteHistHeader := false
	for p := Phase(0); p < numPhases; p++ {
		ps, ok := s.Phases[p.String()]
		if !ok {
			continue
		}
		if !wroteHistHeader {
			fmt.Fprintf(bw, "# HELP %s Wall time of one pipeline phase span, by phase.\n", histName)
			fmt.Fprintf(bw, "# TYPE %s histogram\n", histName)
			wroteHistHeader = true
		}
		label := `phase="` + escapeLabel(p.String()) + `"`
		cum := int64(0)
		for _, b := range ps.Buckets {
			cum += b.Count
			le := strconv.FormatFloat(float64(b.UpperNs)/1e9, 'g', -1, 64)
			fmt.Fprintf(bw, "%s_bucket{%s,le=%q} %d\n", histName, label, le, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{%s,le=\"+Inf\"} %d\n", histName, label, ps.Count)
		sum := strconv.FormatFloat(float64(ps.TotalNs)/1e9, 'g', -1, 64)
		fmt.Fprintf(bw, "%s_sum{%s} %s\n", histName, label, sum)
		fmt.Fprintf(bw, "%s_count{%s} %d\n", histName, label, ps.Count)
	}

	sorted := append([]PromGauge(nil), gauges...)
	// Stable sort by name keeps families contiguous and the caller's
	// label-set order (e.g. shard 0..N) intact within a family.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1].Name > sorted[j].Name; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	prev := ""
	for _, g := range sorted {
		name := MetricsNamespace + "_" + g.Name
		if g.Name != prev {
			help := g.Help
			if help == "" {
				help = "Gauge " + g.Name + "."
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			prev = g.Name
		}
		var lb strings.Builder
		for i, l := range g.Labels {
			if i > 0 {
				lb.WriteByte(',')
			}
			lb.WriteString(l.Name)
			lb.WriteString(`="`)
			lb.WriteString(escapeLabel(l.Value))
			lb.WriteByte('"')
		}
		val := strconv.FormatFloat(g.Value, 'g', -1, 64)
		if lb.Len() > 0 {
			fmt.Fprintf(bw, "%s{%s} %s\n", name, lb.String(), val)
		} else {
			fmt.Fprintf(bw, "%s %s\n", name, val)
		}
	}
	return bw.Flush()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
