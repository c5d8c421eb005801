package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// hardGraph returns a CFI construction whose full canonical build takes
// about half a second at 4 workers on a 2-vCPU VM — ten times the 50 ms
// head start TestBuildCtxCancelPrompt gives it, and far past the 30 ms
// build budgets — so cancellation and budget tests are guaranteed to
// interrupt it mid-flight. (Over 100 base vertices it took 0.12 s, and
// 0.06 s once refinements stopped at the first event that rules a child
// out: too close to those head starts.)
func hardGraph() *graph.Graph {
	return gen.CFI(gen.RigidCubic(200, 1), false)
}

// TestBuildCtxCancelPrompt is the acceptance race test: cancel a build
// of a hard graph mid-flight and require (a) a typed ErrCanceled, (b)
// return within 100ms of the cancel, and (c) no leaked goroutines. Run
// under -race it also exercises the latched-halt paths of the shared
// Ctl from the parallel subtree builders.
func TestBuildCtxCancelPrompt(t *testing.T) {
	g := hardGraph()
	before := runtime.NumGoroutine()

	for _, workers := range []int{0, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			tree *Tree
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			tree, err := BuildCtx(ctx, g, nil, Options{Workers: workers})
			done <- outcome{tree, err}
		}()

		// Let the build get deep into the search, then pull the plug.
		time.Sleep(50 * time.Millisecond)
		canceledAt := time.Now()
		cancel()

		select {
		case o := <-done:
			latency := time.Since(canceledAt)
			if !errors.Is(o.err, engine.ErrCanceled) {
				t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, o.err)
			}
			if o.tree != nil {
				t.Fatalf("workers=%d: canceled build returned a partial tree", workers)
			}
			if latency > 100*time.Millisecond {
				t.Fatalf("workers=%d: build returned %v after cancel, want <= 100ms", workers, latency)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: build did not return after cancel", workers)
		}
	}

	// Goroutine-leak check: the worker pool and any helper goroutines
	// must be gone. Allow the runtime a few scheduling quanta to reap.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildCtxPreCanceled: a context canceled before the build starts
// must stop at the first checkpoint, before any leaf search runs.
func TestBuildCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	tree, err := BuildCtx(ctx, hardGraph(), nil, Options{})
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if tree != nil {
		t.Fatal("canceled build returned a tree")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("pre-canceled build took %v", d)
	}
}

func TestBuildCtxWholeBuildNodeCap(t *testing.T) {
	tree, err := BuildCtx(context.Background(), hardGraph(), nil,
		Options{Budget: engine.Budget{MaxNodes: 1000}})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if tree != nil {
		t.Fatal("over-budget build returned a tree")
	}
}

func TestBuildCtxWholeBuildTimeout(t *testing.T) {
	start := time.Now()
	_, err := BuildCtx(context.Background(), hardGraph(), nil,
		Options{Budget: engine.Budget{BuildTimeout: 30 * time.Millisecond}})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("build ran %v past a 30ms budget", d)
	}
}

// TestBudgetCompositionBuildBoundWins: the two whole-build bounds
// compose, and the one that trips first fails the build. A 30ms
// deadline beside a node cap the build would take far longer to reach
// must stop it on the clock, hard: ErrBudgetExceeded and no tree.
func TestBudgetCompositionBuildBoundWins(t *testing.T) {
	start := time.Now()
	tree, err := BuildCtx(context.Background(), hardGraph(), nil, Options{
		Budget: engine.Budget{
			BuildTimeout: 30 * time.Millisecond,
			MaxNodes:     1 << 40,
		},
	})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded from the deadline", err)
	}
	if tree != nil {
		t.Fatal("over-budget build returned a tree")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("build ran %v past a 30ms deadline", d)
	}
}

// TestBuildCtxUnbudgetedMatchesBuild: threading a background context
// and zero budget through the new entry point must be a pure refactor —
// byte-identical certificates to the legacy wrapper.
func TestBuildCtxUnbudgetedMatchesBuild(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gen.ErdosRenyi(60, 140, 7000+seed)
		want := Build(g, nil, Options{}).CanonicalCert()
		tree, err := BuildCtx(context.Background(), g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.CanonicalCert(); string(got) != string(want) {
			t.Fatalf("seed %d: BuildCtx certificate differs from Build", seed)
		}
	}
}
