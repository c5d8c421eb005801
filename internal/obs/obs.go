// Package obs is the pipeline's observability layer: a zero-dependency
// set of atomic counters and phase timers that every stage of the system
// (refinement, divide, combine, leaf search, SSM) reports into.
//
// The paper's whole evaluation is about *search effort* — tree shape,
// leaf search nodes, pruning effectiveness (Tables 3–5, 8) — so the
// counters here mirror the quantities nauty/Traces expose: nodes visited,
// leaves reached, prunings fired, automorphisms found, refinement work.
//
// A nil *Recorder is a valid no-op recorder: every method nil-checks the
// receiver first, so instrumented hot paths pay one predictable branch
// when recording is disabled. Recorders are safe for concurrent use
// (parallel AutoTree construction feeds one recorder from many workers).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonically increasing count.
type Counter int

// The counter set, grouped by the pipeline layer that reports it.
const (
	// internal/coloring — equitable refinement (1-WL).
	RefineCalls  Counter = iota // equitable refinements run
	RefineRounds                // splitter cells processed off the worklist
	CellSplits                  // new cell fragments created by splitting
	RefineAborts                // search refinements stopped early by the ordered trace

	// internal/canon — individualization–refinement search.
	SearchNodes   // search-tree nodes visited
	SearchLeaves  // discrete colorings (leaves) reached
	PruneBestPath // P_B hits: subtree cut by the best-path invariant
	PruneOrbit    // P_C hits: candidate cut by orbit pruning
	Automorphisms // distinct non-identity generators discovered
	Backjumps     // automorphism backjumps (against the first or the best leaf)
	Truncations   // leaf searches stopped by the whole-build Budget

	// internal/core — DviCL divide & combine.
	DivideICalls       // DivideI attempts (Algorithm 2)
	DivideSCalls       // DivideS attempts (Algorithm 3)
	LeafSearches       // non-singleton leaves labeled by the leaf engine
	TwinVertsCollapsed // vertices removed by twin simplification (§6.1)

	// internal/core scheduler — work-stealing effort. These are
	// scheduling counters: their values vary with worker count and OS
	// timing even though the resulting tree does not. See
	// SchedulerCounter.
	SchedSteals         // tasks taken from another worker's deque
	SchedDequeHighWater // deepest any single deque got during the build

	// internal/ssm — symmetric subgraph matching.
	SSMQueries        // Count/Enumerate/PatternKey calls answered
	SSMLeafCandidates // candidate images generated at leaf base cases
	SSMLeafPruned     // SM embeddings rejected by the symmetry check

	// GraphIndex + internal/store — the certificate index serving layer.
	IndexAdds       // GraphIndex.Add calls
	IndexLookups    // GraphIndex.Lookup calls
	CertCacheHits   // certificate LRU cache hits (DviCL build skipped)
	CertCacheMisses // certificate LRU cache misses (DviCL build ran)
	WALAppends      // records appended to the index WAL
	WALReplayed     // WAL records replayed at OpenGraphIndex

	// cmd/indexd — the HTTP serving layer.
	HTTPRequests  // requests received (all endpoints)
	HTTPErrors    // responses with status >= 400
	HTTPThrottled // 503s issued by the concurrency limiter

	// internal/pipeline + GraphIndex — the bulk-ingest layer.
	IndexAddDuplicate // Adds that hit an existing isomorphism class
	BulkRecords       // records read from a bulk-ingest stream
	BulkDecodeErrors  // bulk records rejected by the decoder
	IndexCanceled     // builds aborted by request-context cancellation

	// internal/treestore — the persistent AutoTree store.
	TreeStoreMemHits        // queries answered from the decoded-tree LRU
	TreeStoreDiskHits       // queries answered by loading a persisted record
	TreeRebuilds            // trees recomputed from the certificate (cold or corrupt)
	TreeStorePuts           // tree records written to disk
	TreeStoreCorrupt        // persisted records rejected (checksum/format) and recomputed
	TreeStoreEvictions      // decoded trees evicted by the memory budget
	TreeStorePersistDropped // write-behind persists dropped by a full queue

	// GraphIndex + cmd/indexd — the symmetry-query serving layer.
	SymmetryQueryOrbits   // orbit queries answered
	SymmetryQueryAutGroup // automorphism-group queries answered
	SymmetryQueryQuotient // quotient-graph queries answered
	SymmetryQuerySSM      // SSM-AT queries answered

	numCounters
)

// counterInfo is the one table of per-counter metadata: the metric
// name and the HELP line of its Prometheus family.
var counterInfo = [numCounters]struct{ name, help string }{
	RefineCalls:        {"refine_calls", "Equitable refinements run."},
	RefineRounds:       {"refine_rounds", "Splitter cells processed off the refinement worklist."},
	CellSplits:         {"cell_splits", "New cell fragments created by refinement splitting."},
	RefineAborts:       {"refine_aborts", "Search refinements stopped early because their ordered trace could match neither reference leaf."},
	SearchNodes:        {"search_nodes", "Search-tree nodes visited by the leaf engine."},
	SearchLeaves:       {"search_leaves", "Discrete colorings (leaves) reached by the leaf engine."},
	PruneBestPath:      {"prune_best_path", "Subtrees cut by the best-path invariant (P_B)."},
	PruneOrbit:         {"prune_orbit", "Candidates cut by orbit pruning (P_C)."},
	Automorphisms:      {"automorphisms", "Distinct non-identity automorphism generators discovered."},
	Backjumps:          {"backjumps", "Automorphism backjumps taken by the leaf engine."},
	Truncations:        {"truncations", "Leaf searches stopped by the whole-build budget; their build returned no labeling."},
	DivideICalls:       {"divide_i_calls", "DivideI attempts (Algorithm 2)."},
	DivideSCalls:       {"divide_s_calls", "DivideS attempts (Algorithm 3)."},
	LeafSearches:       {"leaf_searches", "Non-singleton leaves labeled by the leaf engine."},
	TwinVertsCollapsed: {"twin_verts_collapsed", "Vertices removed by twin simplification."},

	SchedSteals:         {"sched_steals", "Build tasks taken from another worker's deque."},
	SchedDequeHighWater: {"sched_deque_high_water", "Deepest any single scheduler deque got during a build."},
	SSMQueries:          {"ssm_queries", "SSM count/enumerate/key queries answered."},
	SSMLeafCandidates:   {"ssm_leaf_candidates", "Candidate images generated at SSM leaf base cases."},
	SSMLeafPruned:       {"ssm_leaf_pruned", "SM embeddings rejected by the symmetry check."},
	IndexAdds:           {"index_adds", "GraphIndex.Add calls."},
	IndexLookups:        {"index_lookups", "GraphIndex.Lookup calls."},
	CertCacheHits:       {"cert_cache_hits", "Certificate LRU cache hits (DviCL build skipped)."},
	CertCacheMisses:     {"cert_cache_misses", "Certificate LRU cache misses (DviCL build ran)."},
	WALAppends:          {"wal_appends", "Records appended to the index WAL."},
	WALReplayed:         {"wal_replayed", "WAL records replayed at index open."},
	HTTPRequests:        {"http_requests", "HTTP requests received (all endpoints)."},
	HTTPErrors:          {"http_errors", "HTTP responses with status >= 400 (includes throttled 503s)."},
	HTTPThrottled:       {"http_throttled", "503s issued by the concurrency limiter."},
	IndexAddDuplicate:   {"index_add_duplicate", "Adds that hit an existing isomorphism class."},
	BulkRecords:         {"bulk_records", "Records read from bulk-ingest streams."},
	BulkDecodeErrors:    {"bulk_decode_errors", "Bulk records rejected by the decoder."},
	IndexCanceled:       {"index_canceled", "Builds aborted by request-context cancellation."},

	TreeStoreMemHits:        {"treestore_mem_hits", "Tree-store gets served from the decoded-tree memory cache."},
	TreeStoreDiskHits:       {"treestore_disk_hits", "Tree-store gets served by decoding an on-disk record."},
	TreeRebuilds:            {"tree_rebuilds", "AutoTrees rebuilt from their certificate (store miss or corruption)."},
	TreeStorePuts:           {"treestore_puts", "AutoTree records persisted to disk."},
	TreeStoreCorrupt:        {"treestore_corrupt", "Tree records dropped as corrupt (typed decode failure)."},
	TreeStoreEvictions:      {"treestore_evictions", "Decoded trees evicted by the memory budget."},
	TreeStorePersistDropped: {"treestore_persist_dropped", "Write-behind persists dropped by a full queue."},
	SymmetryQueryOrbits:     {"symmetry_query_orbits", "Orbit-partition queries answered."},
	SymmetryQueryAutGroup:   {"symmetry_query_autgroup", "Automorphism-group queries answered."},
	SymmetryQueryQuotient:   {"symmetry_query_quotient", "Orbit-quotient queries answered."},
	SymmetryQuerySSM:        {"symmetry_query_ssm", "Symmetric-subgraph-matching queries answered."},
}

// String returns the counter's snake_case metric name.
func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterInfo[c].name
	}
	return "unknown_counter"
}

// SchedulerCounter reports whether c measures scheduling effort rather
// than algorithmic effort. Scheduler counters (steals, deque depth)
// legitimately vary with the worker count and with OS timing; every
// other counter fires a fixed number of times for a given (graph,
// options) pair no matter how the subtrees were scheduled.
// Determinism checks — "same counters at every worker count" — must
// compare all counters except these.
func SchedulerCounter(c Counter) bool {
	switch c {
	case SchedSteals, SchedDequeHighWater:
		return true
	}
	return false
}

// AllCounters returns every defined counter in declaration order, for
// callers that compare or copy recorders counter-by-counter.
func AllCounters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Phase identifies one timed span kind of the pipeline.
type Phase int

// The phase set: one per algorithm of the paper plus whole-build and
// whole-query spans.
const (
	PhaseBuild      Phase = iota // one whole DviCL Build
	PhaseRefine                  // initial equitable refinement (Alg. 1 line 1)
	PhaseTwins                   // twin detection + expansion (§6.1)
	PhaseDivideI                 // Algorithm 2
	PhaseDivideS                 // Algorithm 3
	PhaseCombineCL               // Algorithm 4 (includes the leaf search)
	PhaseCombineST               // Algorithm 5
	PhaseWorkerBusy              // time a build worker spent executing pool tasks
	PhaseSSMQuery                // one SSM count/enumerate/key query

	// Serving-layer phases (GraphIndex, internal/store, cmd/indexd).
	PhaseIndexAdd    // one GraphIndex.Add (certificate + WAL append)
	PhaseIndexLookup // one GraphIndex.Lookup (cache probe + maybe DviCL)
	PhaseWALAppend   // one WAL record write (+ fsync when -sync)
	PhaseHTTP        // one HTTP request, end to end
	PhaseBulkIngest  // one bulk-ingest pipeline run (stream → shards)

	// internal/treestore + symmetry-query serving.
	PhaseTreeLoad      // one persisted-tree read + decode
	PhaseTreePersist   // one tree record encode + write
	PhaseSymmetryQuery // one orbits/autgroup/quotient/SSM query, end to end

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseBuild:         "build",
	PhaseRefine:        "refine",
	PhaseTwins:         "twins",
	PhaseDivideI:       "divide_i",
	PhaseDivideS:       "divide_s",
	PhaseCombineCL:     "combine_cl",
	PhaseCombineST:     "combine_st",
	PhaseWorkerBusy:    "worker_busy",
	PhaseSSMQuery:      "ssm_query",
	PhaseIndexAdd:      "index_add",
	PhaseIndexLookup:   "index_lookup",
	PhaseWALAppend:     "wal_append",
	PhaseHTTP:          "http_request",
	PhaseBulkIngest:    "bulk_ingest",
	PhaseTreeLoad:      "treestore_load",
	PhaseTreePersist:   "treestore_persist",
	PhaseSymmetryQuery: "symmetry_query",
}

// String returns the phase's snake_case metric name.
func (p Phase) String() string {
	if p >= 0 && p < numPhases {
		return phaseNames[p]
	}
	return "unknown_phase"
}

// timerBuckets is the number of power-of-two latency buckets: bucket i
// counts durations d with bits.Len64(ns) == i, i.e. 2^(i-1) ≤ ns < 2^i.
const timerBuckets = 64

// timer aggregates observations of one phase: count, total, min, max and
// a log2 histogram. All fields are updated atomically.
//
// minNs stores the minimum shifted by +1 so that 0 can mean "no
// observation yet" on a zero-value timer: a genuine 0ns observation is
// stored as 1 and reported back as 0. (An earlier version clamped the
// stored minimum to 1, permanently reporting a fake 1ns minimum for
// phases that legitimately observed 0ns.)
type timer struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	minNs   atomic.Int64 // min+1; 0 = unset
	maxNs   atomic.Int64
	buckets [timerBuckets]atomic.Int64
}

func (t *timer) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.sumNs.Add(ns)
	t.casMin(ns + 1)
	for {
		cur := t.maxNs.Load()
		if cur >= ns {
			break
		}
		if t.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	t.buckets[bits.Len64(uint64(ns))].Add(1)
}

// casMin lowers the stored (shifted) minimum to stored if it is smaller
// or the timer has no minimum yet.
func (t *timer) casMin(stored int64) {
	for {
		cur := t.minNs.Load()
		if cur != 0 && cur <= stored {
			return
		}
		if t.minNs.CompareAndSwap(cur, stored) {
			return
		}
	}
}

// min returns the unshifted minimum (only meaningful when count > 0).
func (t *timer) min() int64 {
	if m := t.minNs.Load(); m > 0 {
		return m - 1
	}
	return 0
}

// Recorder collects counters and phase timers. The zero value is ready to
// use; so is a nil pointer (every method no-ops on a nil receiver).
//
// A Recorder may forward: one built by NewForwarding records every
// observation into itself and into its base recorder. This is how a
// request-scoped Trace attributes effort without losing the global
// totals — the hot path pays one extra atomic per observation, and the
// disabled (nil-recorder) path is unchanged.
type Recorder struct {
	counters [numCounters]atomic.Int64
	timers   [numPhases]timer

	// fwd, when non-nil, receives a copy of every observation (Inc, Add,
	// phase timings, Merge). Set at construction only, never mutated, so
	// reads need no synchronization.
	fwd *Recorder
}

// New returns an empty enabled Recorder.
func New() *Recorder { return &Recorder{} }

// NewForwarding returns a Recorder that additionally copies every
// observation into base (and transitively into base's own forwarding
// target, if any). A nil base yields a plain recorder. Snapshot, Counter
// and Reset act on the forwarding recorder's local state only — that
// locality is what makes it a per-request delta counter.
func NewForwarding(base *Recorder) *Recorder { return &Recorder{fwd: base} }

// Inc adds 1 to the counter.
func (r *Recorder) Inc(c Counter) {
	for ; r != nil; r = r.fwd {
		r.counters[c].Add(1)
	}
}

// Add adds delta to the counter.
func (r *Recorder) Add(c Counter, delta int64) {
	if delta == 0 {
		return
	}
	for ; r != nil; r = r.fwd {
		r.counters[c].Add(delta)
	}
}

// Counter returns the counter's current value (0 on a nil Recorder).
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// ObservePhase records one completed span of the phase.
func (r *Recorder) ObservePhase(p Phase, d time.Duration) {
	r.observeNs(p, int64(d))
}

// observeNs records one phase duration into r and its forwarding chain.
func (r *Recorder) observeNs(p Phase, ns int64) {
	for ; r != nil; r = r.fwd {
		r.timers[p].observe(ns)
	}
}

// Merge folds every counter and timer of src into r (and into r's
// forwarding chain). It is how the bulk pipeline aggregates per-worker
// recorders on completion: each worker records into a private Recorder
// (no cross-core contention on the hot path), and the pipeline merges
// them into the shared one when the worker drains. Merging a nil src, or
// merging into a nil r, is a no-op. Safe for concurrent use, though src
// should be quiescent for the merge to be a consistent cut.
func (r *Recorder) Merge(src *Recorder) {
	if src == nil {
		return
	}
	for ; r != nil; r = r.fwd {
		r.mergeLocal(src)
	}
}

// mergeLocal folds src into r's own arrays only (no forwarding).
func (r *Recorder) mergeLocal(src *Recorder) {
	for i := range src.counters {
		if v := src.counters[i].Load(); v != 0 {
			r.counters[i].Add(v)
		}
	}
	for i := range src.timers {
		st, dt := &src.timers[i], &r.timers[i]
		n := st.count.Load()
		if n == 0 {
			continue
		}
		dt.count.Add(n)
		dt.sumNs.Add(st.sumNs.Load())
		// minNs is stored shifted by +1 in both timers, so the raw value
		// transfers directly; 0 still means "unset".
		if m := st.minNs.Load(); m != 0 {
			dt.casMin(m)
		}
		if m := st.maxNs.Load(); m != 0 {
			for {
				cur := dt.maxNs.Load()
				if cur >= m {
					break
				}
				if dt.maxNs.CompareAndSwap(cur, m) {
					break
				}
			}
		}
		for j := range st.buckets {
			if c := st.buckets[j].Load(); c != 0 {
				dt.buckets[j].Add(c)
			}
		}
	}
}

// Reset zeroes every counter and timer.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.counters {
		r.counters[i].Store(0)
	}
	for i := range r.timers {
		t := &r.timers[i]
		t.count.Store(0)
		t.sumNs.Store(0)
		t.minNs.Store(0)
		t.maxNs.Store(0)
		for j := range t.buckets {
			t.buckets[j].Store(0)
		}
	}
}

// Bucket is one non-empty log2 latency bucket of a phase histogram:
// Count observations fell in [UpperNs/2, UpperNs).
type Bucket struct {
	UpperNs int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// PhaseStats is the snapshot of one phase timer.
type PhaseStats struct {
	Count   int64    `json:"count"`
	TotalNs int64    `json:"total_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a Recorder, JSON-serializable and
// directly comparable between runs (the "diff counters, not vibes" unit).
// Counters holds every counter by name, including zeros, so two snapshots
// always have identical key sets; Phases holds only phases that fired.
type Snapshot struct {
	Counters map[string]int64      `json:"counters"`
	Phases   map[string]PhaseStats `json:"phases"`
}

// PhaseTotals returns each phase's total recorded time in nanoseconds,
// keyed by phase name. Phases that never fired are absent, so two
// snapshots of differently-shaped runs have different key sets — useful
// for "where did the build spend its time" summaries (the perfbench
// suite records these next to its wall times).
func (s Snapshot) PhaseTotals() map[string]int64 {
	out := make(map[string]int64, len(s.Phases))
	for name, ps := range s.Phases {
		out[name] = ps.TotalNs
	}
	return out
}

// Snapshot copies the current state. Safe to call while other goroutines
// record (each field is read atomically; the snapshot is not a single
// consistent cut, which is fine for monitoring).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64, numCounters),
		Phases:   make(map[string]PhaseStats),
	}
	if r == nil {
		for c := Counter(0); c < numCounters; c++ {
			s.Counters[c.String()] = 0
		}
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.String()] = r.counters[c].Load()
	}
	for p := Phase(0); p < numPhases; p++ {
		t := &r.timers[p]
		n := t.count.Load()
		if n == 0 {
			continue
		}
		ps := PhaseStats{
			Count:   n,
			TotalNs: t.sumNs.Load(),
			MinNs:   t.min(),
			MaxNs:   t.maxNs.Load(),
		}
		for i := range t.buckets {
			if c := t.buckets[i].Load(); c > 0 {
				upper := int64(1) << i
				if i == 0 {
					upper = 1
				}
				ps.Buckets = append(ps.Buckets, Bucket{UpperNs: upper, Count: c})
			}
		}
		s.Phases[p.String()] = ps
	}
	return s
}
