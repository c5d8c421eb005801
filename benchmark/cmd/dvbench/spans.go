package main

import (
	"sort"
	"time"
)

// Layers a span can be charged to. layerOp is the root span of one
// operation; its self time is the part of the operation no layer span
// covers, reported as "unattributed".
const (
	layerOp uint8 = iota
	layerGraph
	layerCore
	layerPipeline
	layerIndex
	layerSymquery
	layerIndexd
	layerLoadgen
	numLayers
)

var layerNames = [numLayers]string{
	layerOp:       "unattributed",
	layerGraph:    "graph",
	layerCore:     "core",
	layerPipeline: "pipeline",
	layerIndex:    "index",
	layerSymquery: "symquery",
	layerIndexd:   "indexd",
	layerLoadgen:  "loadgen",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin; parent is -1 for an operation's root span.
type span struct {
	ID     int32 `json:"id"`
	Parent int32 `json:"parent"`
	Op     int32 `json:"op"`
	Layer  uint8 `json:"layer"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in a buffer allocated up front, so recording an
// operation only stores its spans. A full buffer drops further
// operations and counts their spans. A nil *tracer records nothing and
// never reads the clock: untraced runs execute the same code with tracing
// off. now may be called from any goroutine; record from one at a time.
type tracer struct {
	origin  time.Time
	n       int
	buf     []span
	dropped int64
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), buf: make([]span, capacity)}
}

// now returns the tracer clock, or 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(w.Sub(t.origin))
}

// part is one layer span inside an operation, in tracer time.
type part struct {
	layer      uint8
	start, end int64
}

// record stores one finished operation: its root span [start, end] and
// its layer spans as the root's children. The operation is stored whole
// or, when the buffer cannot hold all of it, dropped whole, so every
// stored root has all its children.
func (t *tracer) record(op int32, start, end int64, parts ...part) {
	if t == nil {
		return
	}
	i := t.n
	if i+1+len(parts) > len(t.buf) {
		t.dropped += int64(1 + len(parts))
		return
	}
	root := int32(i)
	t.buf[i] = span{ID: root, Parent: -1, Op: op, Layer: layerOp, Start: start, End: end}
	for j, p := range parts {
		t.buf[i+1+j] = span{ID: root + 1 + int32(j), Parent: root, Op: op,
			Layer: p.layer, Start: p.start, End: p.end}
	}
	t.n += 1 + len(parts)
}

// spans returns the recorded spans.
func (t *tracer) spans() []span { return t.buf[:t.n] }

// selfTimes charges every span's self time — its duration minus the part
// of it its children cover — to the span's layer, and returns the totals
// in nanoseconds with the number of root spans. The totals sum to the
// summed duration of the roots.
func selfTimes(spans []span) (self [numLayers]int64, roots int) {
	children := make(map[int32][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
		}
		iv = iv[:0]
		for _, c := range children[s.ID] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[s.Layer] += (s.End - s.Start) - covered(iv)
	}
	return self, roots
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
