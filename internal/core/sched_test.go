package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

// TestDeepChainDeterminism drives the scheduler's worst case for
// fan-out-only parallelism: a complete binary tree divides as a
// depth-long chain of 3-way divides (singleton + two half-trees), so
// every drop of parallelism comes from thieves stealing the sibling the
// owner left on its deque. Certificates, labelings, Stats and every
// non-scheduling counter must be identical at every worker count.
func TestDeepChainDeterminism(t *testing.T) {
	g := gen.CompleteBinaryTree(10)
	recSeq := obs.New()
	want := Build(g, nil, Options{Obs: recSeq})
	// Pin the steal-heavy shape: a chain at least as deep as the input
	// tree, not one wide fanout.
	if s := want.Stats(); s.Depth < 10 {
		t.Fatalf("deep-chain family lost its shape: AutoTree depth %d", s.Depth)
	}
	for _, workers := range []int{2, 3, 8, runtime.NumCPU()} {
		rec := obs.New()
		got := Build(g, nil, Options{Workers: workers, Obs: rec})
		if !bytes.Equal(want.CanonicalCert(), got.CanonicalCert()) {
			t.Fatalf("workers=%d: deep-chain certificate differs", workers)
		}
		if !slices.Equal(want.Gamma, got.Gamma) {
			t.Fatalf("workers=%d: canonical labeling differs", workers)
		}
		if want.Stats() != got.Stats() {
			t.Fatalf("workers=%d: Stats differ: %+v vs %+v", workers, want.Stats(), got.Stats())
		}
		if rec.Snapshot().Phases[obs.PhaseWorkerBusy.String()].Count == 0 {
			t.Fatalf("workers=%d: no tasks reached the scheduler", workers)
		}
		for _, c := range obs.AllCounters() {
			if obs.SchedulerCounter(c) {
				continue
			}
			if got, want := rec.Counter(c), recSeq.Counter(c); got != want {
				t.Fatalf("workers=%d: counter %s = %d, sequential %d", workers, c, got, want)
			}
		}
	}
}

// TestBuildChildrenErrorPath is the backported error-path regression
// test: when the whole-build budget trips inside one child's leaf
// search, the remaining siblings must not keep building. (The old
// token-bucket fan-out checked the error latch only after handing out
// each child, so its inline path kept launching leaf searches after a
// sibling had already failed.) Sequentially exactly one leaf search may
// start; with two workers at most the one in-flight sibling can have
// started before the scheduler latched the error.
func TestBuildChildrenErrorPath(t *testing.T) {
	parts := make([]*graph.Graph, 16)
	for i := range parts {
		parts[i] = cycle(12) // vertex-transitive: every component needs a leaf search
	}
	g := gen.DisjointUnion(parts...)
	for _, tc := range []struct {
		workers     int
		maxSearches int64
	}{
		{0, 1},
		{2, 2},
	} {
		rec := obs.New()
		_, err := BuildCtx(context.Background(), g, nil, Options{
			Workers: tc.workers,
			Budget:  engine.Budget{MaxNodes: 1},
			Obs:     rec,
		})
		if !errors.Is(err, engine.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", tc.workers, err)
		}
		if got := rec.Counter(obs.LeafSearches); got == 0 || got > tc.maxSearches {
			t.Fatalf("workers=%d: %d leaf searches started, want 1..%d — siblings built past the error",
				tc.workers, got, tc.maxSearches)
		}
	}
}

// TestSchedulerCancelHammer cancels parallel builds at staggered points
// — from before the root divide to deep inside the leaf searches — and
// requires a typed error (or clean completion when the cancel lost the
// race), no partial trees, and zero leaked pool goroutines. CI runs it
// with -race -count=5 alongside the other cancellation tests.
func TestSchedulerCancelHammer(t *testing.T) {
	graphs := []*graph.Graph{gen.CompleteBinaryTree(9), hardGraph()}
	before := runtime.NumGoroutine()
	delay := 50 * time.Microsecond
	for i := 0; i < 8; i++ {
		for _, g := range graphs {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			tree, err := BuildCtx(ctx, g, nil, Options{Workers: 8})
			timer.Stop()
			cancel()
			switch {
			case err == nil:
				if tree == nil {
					t.Fatal("nil tree without error")
				}
			case errors.Is(err, engine.ErrCanceled):
				if tree != nil {
					t.Fatal("canceled build returned a partial tree")
				}
			default:
				t.Fatalf("unexpected error %v", err)
			}
		}
		delay *= 3 // ~50µs .. ~100ms: root path, divide cascade, leaf searches
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
