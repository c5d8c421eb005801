package engine

import "sync"

// Workspace is the reusable scratch memory for one goroutine's
// refinement and search work: the 1-WL refinement buffers that were
// previously allocated fresh on every Refine call. Ownership rule: a
// Workspace belongs to exactly one goroutine at a time — long-lived
// workers (core's persistent scheduler pool, pipeline canonicalizers,
// the ssm query Index) each own one for their whole lifetime and never
// share it across concurrent refinements. The one sanctioned form of
// sharing is read-only: Arena-backed CSR views may be read by another
// worker (core's stolen child builds read the victim's arena), which is
// safe because arena chunks are append-only and never move, and the
// owner keeps the frame open until the reader has joined.
//
// Invariants between uses (every consumer restores them before
// returning, including on the cancellation path):
//
//   - Counts[i] == 0 for all i < len(Counts)
//   - Marks[i] == false, Bits[i] == false for all i
//   - LocalIdx[i] == 0, ColorCount[i] == 0 for all i
//   - Queue, Touched, Keys, Frags, IntsA, IntsB, IntsC, Bytes, Trace
//     have length 0 (capacity retained)
//   - PairCount is empty (buckets retained)
//   - Arena is fully released (every Mark matched by a Release)
//
// Gamma carries no invariant: it is write-before-read scratch.
//
// Consumers restore the zeroed/false invariants with the visited-list
// trick — clear exactly the indices you set — so restores cost O(touched),
// not O(n). List-typed buffers (IntsA..C, Keys, Bytes) must never hold
// live data across a recursive call that also receives this workspace:
// Grow and nested consumers reset them to length 0. The Arena is the one
// field that IS safe to hold across recursion, because recursion depth
// maps onto its Mark/Release stack.
type Workspace struct {
	// Counts is the per-vertex adjacency-count buffer (zeroed invariant).
	Counts []int
	// Marks is the per-cell "in worklist" flag buffer (false invariant).
	Marks []bool
	// Bits is a general-purpose per-vertex bitmap (false invariant) for
	// set-membership tests during divide — consumers record which indices
	// they set and clear exactly those before returning (the visited-list
	// trick), so restoring the invariant is O(set) not O(n).
	Bits []bool
	// Queue is the refinement worklist of cell start indices.
	Queue []int
	// Touched collects the cells reached by the current worklist cell.
	Touched []int
	// Keys is the scratch for sorting cell fragments by count.
	Keys []uint64
	// Frags receives [start, end) cell fragments from a split.
	Frags [][2]int
	// LocalIdx is the subgraph-induction index table: vertex id (global
	// or subgraph-local) -> local index+1; 0 = not in the subgraph
	// (zeroed invariant).
	LocalIdx []int32
	// ColorCount counts vertices per color value (zeroed invariant).
	// Color values are cell start offsets, so they are always < n.
	ColorCount []int32
	// Gamma is per-vertex int scratch with no invariant: consumers write
	// every entry they later read (write-before-read).
	Gamma []int
	// IntsA, IntsB, IntsC are general length-0 int list buffers for
	// transient vertex/color lists inside one non-recursive call.
	IntsA, IntsB, IntsC []int
	// Bytes is a length-0 byte list buffer for building descriptors and
	// hash preimages inside one non-recursive call.
	Bytes []byte
	// Trace is the leaf search's ordered-trace stack (internal/canon):
	// the values of every refinement on the current search path. One
	// search holds it for its whole run, across its own recursion; Grow
	// and every other consumer leave it alone.
	Trace []uint64
	// PairCount counts edges per packed (color, color) pair during
	// DivideS (empty-between-uses invariant; cleared with clear so the
	// buckets are retained).
	PairCount map[uint64]int32
	// Arena backs the divide phase's transient CSR views (see Arena).
	Arena Arena
}

// Grow ensures every buffer can hold an n-vertex graph's refinement
// state without reallocating mid-run. Growing preserves the zeroed /
// false invariants because append's fresh memory is zero-valued.
//
// Grow never shrinks: the build path sizes one workspace by the global
// vertex count and then refines subgraphs of smaller n through the same
// workspace (canon's leaf search calls Grow with the local size), while
// the divide/combine layers keep indexing LocalIdx/ColorCount/Gamma by
// global ids. Extend-only reslicing keeps both views valid.
func (w *Workspace) Grow(n int) {
	if cap(w.Counts) < n {
		w.Counts = append(make([]int, 0, n), w.Counts...)
	}
	if len(w.Counts) < n {
		w.Counts = w.Counts[:n]
	}
	if cap(w.Marks) < n {
		w.Marks = append(make([]bool, 0, n), w.Marks...)
	}
	if len(w.Marks) < n {
		w.Marks = w.Marks[:n]
	}
	if cap(w.Bits) < n {
		w.Bits = append(make([]bool, 0, n), w.Bits...)
	}
	if len(w.Bits) < n {
		w.Bits = w.Bits[:n]
	}
	if cap(w.Queue) < n {
		w.Queue = make([]int, 0, n)
	}
	w.Queue = w.Queue[:0]
	if cap(w.Touched) < n {
		w.Touched = make([]int, 0, n)
	}
	w.Touched = w.Touched[:0]
	if cap(w.Keys) < n {
		w.Keys = make([]uint64, 0, n)
	}
	w.Keys = w.Keys[:0]
	if cap(w.Frags) < 8 {
		w.Frags = make([][2]int, 0, 8)
	}
	w.Frags = w.Frags[:0]
	if cap(w.LocalIdx) < n {
		w.LocalIdx = append(make([]int32, 0, n), w.LocalIdx...)
	}
	if len(w.LocalIdx) < n {
		w.LocalIdx = w.LocalIdx[:n]
	}
	if cap(w.ColorCount) < n {
		w.ColorCount = append(make([]int32, 0, n), w.ColorCount...)
	}
	if len(w.ColorCount) < n {
		w.ColorCount = w.ColorCount[:n]
	}
	if cap(w.Gamma) < n {
		w.Gamma = make([]int, 0, n)
	}
	if len(w.Gamma) < n {
		w.Gamma = w.Gamma[:n]
	}
	w.IntsA = w.IntsA[:0]
	w.IntsB = w.IntsB[:0]
	w.IntsC = w.IntsC[:0]
	w.Bytes = w.Bytes[:0]
	if w.PairCount == nil {
		w.PairCount = make(map[uint64]int32)
	}
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace takes a workspace from the pool, sized for an n-vertex
// graph. Pair with PutWorkspace; legacy entry points that predate the
// workspace API use this pair internally, so steady-state callers of
// the old signatures also stop allocating.
func GetWorkspace(n int) *Workspace {
	w := wsPool.Get().(*Workspace)
	w.Grow(n)
	return w
}

// PutWorkspace returns a workspace to the pool. The caller must have
// restored the invariants (all engine consumers do, even on the
// cancellation path); the workspace must not be used after Put.
func PutWorkspace(w *Workspace) {
	if w != nil {
		wsPool.Put(w)
	}
}
