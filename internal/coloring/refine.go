package coloring

import (
	"dvicl/internal/engine"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// pollRounds is how many refinement rounds pass between cancellation
// polls. A round is one splitter cell's worth of neighbor counting —
// cheap for small cells — so the poll is rate-limited the same way the
// search's per-node Tick is.
const pollRounds = 256

// Refine makes c equitable with respect to g — the refinement function R
// of Sections 4 and 6 (1-dimensional Weisfeiler–Lehman). Cells are split
// by the number of neighbors in a splitter cell; fragments are ordered by
// ascending count, which makes the resulting ordered partition
// isomorphism-invariant (property (iii) of R).
//
// active lists the cell start positions seeding the splitter worklist;
// pass nil to seed with every cell (a refinement from scratch). After an
// Individualize, pass the returned singleton (and remainder) starts.
//
// The cost per splitter is proportional to the splitter's adjacency, not
// to the sizes of the touched cells: members with zero splitter-neighbors
// stay in place as the (implicit, minimal-count) first fragment.
//
// Refine draws a scratch workspace from the engine pool; hot loops that
// refine repeatedly should hold their own workspace and call RefineWS.
func (c *Coloring) Refine(g *graph.Graph, active []int) {
	w := engine.GetWorkspace(c.N())
	c.refineWS(g, active, w, nil, nil)
	engine.PutWorkspace(w)
}

// RefineWS is the full-control refinement entry: it runs in the caller's
// workspace (allocation-free in steady state), polls ctl between rounds,
// and reports into rec: obs.RefineCalls (refinements run),
// obs.RefineRounds (splitter cells processed) and obs.CellSplits (new
// cell fragments created by splitting). Counts are accumulated in locals
// and flushed once at the end, so the refinement loop itself carries no
// atomic traffic. Any of w's buffers may be grown and retained in w. On
// cancellation it returns ctl's error with the coloring in a valid
// (merely under-refined) state and w's invariants restored. ctl and rec
// may be nil; w must not be shared with a concurrent refinement.
func (c *Coloring) RefineWS(g *graph.Graph, active []int, w *engine.Workspace, ctl *engine.Ctl, rec *obs.Recorder) error {
	rounds, splits, err := c.refineWS(g, active, w, ctl, nil)
	rec.Inc(obs.RefineCalls)
	rec.Add(obs.RefineRounds, rounds)
	rec.Add(obs.CellSplits, splits)
	return err
}

// Refs are the references a search refinement is compared with while it
// runs: the ordered traces the first leaf's and the best leaf's
// refinements produced at the same search level. A nil field is a
// reference the refinement cannot match.
type Refs struct {
	First []uint64
	Best  []uint64
}

// Verdict is how a search refinement's ordered trace compares with its
// Refs. Traces are ordered lexicographically, a proper prefix first.
type Verdict struct {
	// Aborted reports that the refinement stopped at a round boundary
	// because its trace could no longer equal Refs.First nor be at most
	// Refs.Best. The coloring is then under-refined and the recorded
	// trace only a prefix.
	Aborted bool
	// First reports that the trace equals Refs.First.
	First bool
	// Best is −1, 0 or +1 as the trace is below, equal to or above
	// Refs.Best; +1 when Refs.Best is nil.
	Best int
}

// RefineSearch is the backtrack search's refinement entry. It refines
// exactly like RefineWS and reports the same counters, and also appends
// to *vals the node's ordered trace: the splitter cells, the split
// fragments and their counts, and the final cell fold, in the order the
// refinement produces them. Two corresponding nodes of the search trees
// of isomorphic colored graphs record equal traces, so the ordered trace
// is the search's node invariant φ. With refs nil nothing is compared and
// the Verdict is meaningless. Otherwise each value is compared with refs
// as it is produced, and at each round boundary the refinement stops as
// soon as the trace can match neither reference; such a refinement also
// counts in obs.RefineAborts, and the values it appended are only a
// prefix.
func (c *Coloring) RefineSearch(g *graph.Graph, active []int, w *engine.Workspace, ctl *engine.Ctl, rec *obs.Recorder, vals *[]uint64, refs *Refs) (Verdict, error) {
	t := tracer{vals: *vals, base: len(*vals), refs: refs, best: 1}
	if refs != nil {
		t.first = refs.First != nil
		if refs.Best != nil {
			t.best = 0
		}
	}
	rounds, splits, err := c.refineWS(g, active, w, ctl, &t)
	*vals = t.vals
	rec.Inc(obs.RefineCalls)
	rec.Add(obs.RefineRounds, rounds)
	rec.Add(obs.CellSplits, splits)
	switch {
	case err != nil || refs == nil:
		return Verdict{}, err
	case t.rejected():
		rec.Inc(obs.RefineAborts)
		return Verdict{Aborted: true, Best: 1}, nil
	}
	return t.verdict(), nil
}

// tracer records a search refinement's ordered trace, comparing each
// value with the references as it arrives. A refinement that records
// nothing runs with a nil tracer.
type tracer struct {
	vals  []uint64
	base  int // len(vals) when this refinement began
	refs  *Refs
	first bool // the values so far are a prefix of refs.First
	best  int  // 0 while a prefix of refs.Best; −1 or +1 once they differ
}

// emit appends x to the ordered trace and compares it with the
// references.
func (t *tracer) emit(x uint64) {
	if t == nil {
		return
	}
	i := len(t.vals) - t.base
	t.vals = append(t.vals, x)
	if t.refs == nil {
		return
	}
	if t.first && (i >= len(t.refs.First) || t.refs.First[i] != x) {
		t.first = false
	}
	if t.best == 0 {
		switch {
		case i >= len(t.refs.Best) || x > t.refs.Best[i]:
			t.best = 1
		case x < t.refs.Best[i]:
			t.best = -1
		}
	}
}

// rejected reports that the trace so far can match neither reference:
// it has left refs.First and exceeds refs.Best.
func (t *tracer) rejected() bool {
	return t != nil && t.refs != nil && !t.first && t.best > 0
}

// verdict compares the finished trace with the references.
func (t *tracer) verdict() Verdict {
	n := len(t.vals) - t.base
	v := Verdict{First: t.first && n == len(t.refs.First), Best: t.best}
	if t.best == 0 && n < len(t.refs.Best) {
		v.Best = -1
	}
	return v
}

// refineWS refines c and records its ordered trace in t, which may be
// nil. It returns early, with the coloring under-refined and w's
// invariants restored, on cancellation and once t is rejected.
func (c *Coloring) refineWS(g *graph.Graph, active []int, w *engine.Workspace, ctl *engine.Ctl, t *tracer) (rounds, splits int64, err error) {
	n := c.N()
	if n == 0 {
		return 0, 0, nil
	}
	w.Grow(n)
	inWork := w.Marks
	cnt := w.Counts // neighbor count scratch, keyed by vertex
	touched := w.Touched[:0]
	keys := w.Keys[:0]

	if active == nil {
		for s := 0; s < n; s = c.ce[s] {
			if !inWork[s] {
				inWork[s] = true
				w.Queue = append(w.Queue, s)
			}
		}
	} else {
		for _, s := range active {
			if s >= 0 && !inWork[s] {
				inWork[s] = true
				w.Queue = append(w.Queue, s)
			}
		}
	}

	// The worklist pops by head index rather than reslicing, so the
	// queue's backing array survives for the next refinement in this
	// workspace.
	head := 0
	for head < len(w.Queue) && !t.rejected() {
		if rounds%pollRounds == 0 {
			if err = ctl.Poll(); err != nil {
				break
			}
		}
		ws := w.Queue[head]
		head++
		inWork[ws] = false
		rounds++
		we := c.ce[ws]
		t.emit(uint64(ws)<<32 | uint64(we))

		// Count splitter-neighbors for every adjacent vertex.
		touched = touched[:0]
		for p := ws; p < we; p++ {
			for _, q32 := range g.Neighbors32(c.lab[p]) {
				q := int(q32)
				if cnt[q] == 0 {
					touched = append(touched, q)
				}
				cnt[q]++
			}
		}
		if len(touched) == 0 {
			if c.nc == n {
				break
			}
			continue
		}
		// Order the touched vertices by (cell, count): positional and
		// count-based, hence isomorphism-invariant. Ties within a
		// fragment are irrelevant to the partition. The sort runs on
		// packed uint64 keys — this is the refinement's hot loop.
		keys = keys[:0]
		for _, v := range touched {
			keys = append(keys, uint64(c.cs[c.pos[v]])<<32|uint64(cnt[v]))
		}
		sortByKeys(keys, touched)
		// Process each touched cell's contiguous group.
		for i := 0; i < len(touched); {
			s := c.cs[c.pos[touched[i]]]
			j := i + 1
			for j < len(touched) && c.cs[c.pos[touched[j]]] == s {
				j++
			}
			splits += int64(c.splitTouched(s, touched[i:j], cnt, t, w))
			i = j
		}
		for _, v := range touched {
			cnt[v] = 0
		}
		if c.nc == n {
			break
		}
	}
	// Restore the workspace invariants: cells still queued (early break,
	// cancellation or a rejected trace) keep their mark only for the
	// queue's lifetime.
	for ; head < len(w.Queue); head++ {
		inWork[w.Queue[head]] = false
	}
	w.Queue = w.Queue[:0]
	w.Touched = touched[:0]
	w.Keys = keys[:0]
	if err != nil || t == nil || t.rejected() {
		return rounds, splits, err
	}
	// Fold the final cell structure into the trace.
	for s := 0; s < n; s = c.ce[s] {
		t.emit(uint64(s)<<32 | uint64(c.ce[s]-s))
	}
	return rounds, splits, nil
}

// splitTouched splits the cell starting at s given its touched members
// (sorted by ascending count); untouched members keep count zero and stay
// in place as the first fragment. Runs in O(len(group)). It emits the
// split into tr and returns the number of new cell fragments created. New
// fragments are enqueued on w.Queue per the Hopcroft rule.
func (c *Coloring) splitTouched(s int, group []int, cnt []int, tr *tracer, w *engine.Workspace) int {
	e := c.ce[s]
	t := len(group)
	zeros := (e - s) - t
	// Distinct counts?
	oneCount := true
	for k := 1; k < t; k++ {
		if cnt[group[k]] != cnt[group[0]] {
			oneCount = false
			break
		}
	}
	if zeros == 0 && oneCount {
		// Whole cell has one uniform count: no split.
		tr.emit(uint64(s)<<32 | uint64(cnt[group[0]]))
		return 0
	}
	// Move touched members to the cell's tail, descending count from the
	// back, so fragments end up ordered: zeros first, then ascending
	// counts.
	for k := t - 1; k >= 0; k-- {
		v := group[k]
		target := e - (t - k)
		p := c.pos[v]
		if p != target {
			u := c.lab[target]
			c.lab[target], c.lab[p] = v, u
			c.pos[v], c.pos[u] = target, p
		}
	}
	wasActive := w.Marks[s]
	if wasActive {
		w.Marks[s] = false
	}
	// Fragment boundaries: [s, s+zeros) keeps its cs values; count groups
	// occupy [e-t, e).
	frags := w.Frags[:0]
	if zeros > 0 {
		c.ce[s] = s + zeros
		frags = append(frags, [2]int{s, s + zeros})
		tr.emit(uint64(s)<<32 | uint64(zeros))
		tr.emit(0)
	}
	gs := e - t
	for k := 0; k < t; {
		k2 := k + 1
		for k2 < t && cnt[c.lab[gs+k2]] == cnt[c.lab[gs+k]] {
			k2++
		}
		fs, fe := gs+k, gs+k2
		for p := fs; p < fe; p++ {
			c.cs[p] = fs
		}
		c.ce[fs] = fe
		frags = append(frags, [2]int{fs, fe})
		tr.emit(uint64(fs)<<32 | uint64(fe-fs))
		tr.emit(uint64(cnt[c.lab[fs]]))
		k = k2
	}
	c.nc += len(frags) - 1
	// Hopcroft rule: enqueue all fragments except the largest; if the
	// original cell was pending, enqueue the largest too.
	largest := 0
	for i, f := range frags {
		if f[1]-f[0] > frags[largest][1]-frags[largest][0] {
			largest = i
		}
	}
	for i, f := range frags {
		if i != largest || wasActive {
			if !w.Marks[f[0]] {
				w.Marks[f[0]] = true
				w.Queue = append(w.Queue, f[0])
			}
		}
	}
	w.Frags = frags[:0]
	return len(frags) - 1
}

// IsEquitable reports whether c is equitable with respect to g: for every
// pair of cells Vi, Vj, all vertices of Vi have the same number of
// neighbors in Vj (Section 2).
func (c *Coloring) IsEquitable(g *graph.Graph) bool {
	n := c.N()
	for s := 0; s < n; s = c.ce[s] {
		e := c.ce[s]
		if e-s == 1 {
			continue
		}
		// Count per-cell neighbor profile of the first member, compare rest.
		ref := make(map[int]int)
		g.Neighbors(c.lab[s], func(w int) {
			ref[c.cs[c.pos[w]]]++
		})
		for p := s + 1; p < e; p++ {
			got := make(map[int]int)
			g.Neighbors(c.lab[p], func(w int) {
				got[c.cs[c.pos[w]]]++
			})
			if len(got) != len(ref) {
				return false
			}
			for k, v := range ref {
				if got[k] != v {
					return false
				}
			}
		}
	}
	return true
}

// sortByKeys sorts vals by their parallel packed keys ascending
// (quicksort with median-of-three pivots, insertion sort below 16).
func sortByKeys(keys []uint64, vals []int) {
	for len(keys) > 16 {
		p := medianOf3(keys[0], keys[len(keys)/2], keys[len(keys)-1])
		i, j := 0, len(keys)-1
		for i <= j {
			for keys[i] < p {
				i++
			}
			for keys[j] > p {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if j+1 < len(keys)-i {
			sortByKeys(keys[:j+1], vals[:j+1])
			keys, vals = keys[i:], vals[i:]
		} else {
			sortByKeys(keys[i:], vals[i:])
			keys, vals = keys[:j+1], vals[:j+1]
		}
	}
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
			vals[j] = vals[j-1]
		}
		keys[j] = k
		vals[j] = v
	}
}

func medianOf3(a, b, c uint64) uint64 {
	if (a <= b && b <= c) || (c <= b && b <= a) {
		return b
	}
	if (b <= a && a <= c) || (c <= a && a <= b) {
		return a
	}
	return c
}
