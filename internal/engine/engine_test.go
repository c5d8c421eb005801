package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNewCtlNoopWhenNothingToEnforce(t *testing.T) {
	if ctl := NewCtl(nil, Budget{}); ctl != nil {
		t.Fatal("NewCtl(nil, zero budget) should be the nil no-op controller")
	}
	// context.Background has a nil Done channel: nothing to watch.
	if ctl := NewCtl(context.Background(), Budget{}); ctl != nil {
		t.Fatal("NewCtl(Background, zero budget) should be nil")
	}
	// Each whole-build bound alone forces a real controller.
	if ctl := NewCtl(context.Background(), Budget{MaxNodes: 1}); ctl == nil {
		t.Fatal("MaxNodes should yield a controller")
	}
	if ctl := NewCtl(context.Background(), Budget{BuildTimeout: time.Hour}); ctl == nil {
		t.Fatal("BuildTimeout should yield a controller")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if ctl := NewCtl(ctx, Budget{}); ctl == nil {
		t.Fatal("cancelable context should yield a controller")
	}
}

func TestNilCtlIsSafe(t *testing.T) {
	var c *Ctl
	if err := c.Tick(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
}

func TestCtlCancelLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := NewCtl(ctx, Budget{})
	if err := ctl.Poll(); err != nil {
		t.Fatalf("premature stop: %v", err)
	}
	cancel()
	if err := ctl.Poll(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Poll after cancel = %v, want ErrCanceled", err)
	}
	// Latched: every subsequent checkpoint observes the same outcome.
	if err := ctl.Tick(1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Tick after cancel = %v", err)
	}
}

func TestCtlCancelCauseSurfaces(t *testing.T) {
	boom := errors.New("client gone")
	ctx, cancel := context.WithCancelCause(context.Background())
	ctl := NewCtl(ctx, Budget{})
	cancel(boom)
	err := ctl.Poll()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "client gone") {
		t.Fatalf("err %q does not carry the cancellation cause", err)
	}
}

func TestCtlTickPollsWithinBudgetedGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := NewCtl(ctx, Budget{})
	cancel()
	// Tick rate-limits its polls; the latch must still engage within one
	// poll gap of the cancellation.
	for i := 0; i < pollEvery; i++ {
		if err := ctl.Tick(1); err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("Tick = %v, want ErrCanceled", err)
			}
			return
		}
	}
	t.Fatalf("cancellation not observed within %d ticks", pollEvery)
}

func TestCtlMaxNodes(t *testing.T) {
	ctl := NewCtl(context.Background(), Budget{MaxNodes: 100})
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		err = ctl.Tick(1)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestCtlBuildTimeout(t *testing.T) {
	ctl := NewCtl(context.Background(), Budget{BuildTimeout: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	if err := ctl.Poll(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Poll past deadline = %v, want ErrBudgetExceeded", err)
	}
}

func TestCtlContextDeadlineComposes(t *testing.T) {
	// The context deadline is sooner than BuildTimeout; the earlier bound
	// must win.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ctl := NewCtl(ctx, Budget{BuildTimeout: time.Hour})
	time.Sleep(5 * time.Millisecond)
	if err := ctl.Poll(); err == nil {
		t.Fatal("expired context deadline not observed")
	}
}

func TestInternalError(t *testing.T) {
	err := Internalf("core.combineCL", "bad cell %d", 7)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatal("Internalf should yield an *InternalError")
	}
	if ie.Op != "core.combineCL" {
		t.Fatalf("Op = %q", ie.Op)
	}
	want := "dvicl: internal error in core.combineCL: bad cell 7"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestWorkspaceGrowPreservesInvariants(t *testing.T) {
	w := new(Workspace)
	w.Grow(16)
	checkInvariants(t, w, 16)
	// Dirty the buffers the way a consumer would, then restore and regrow.
	w.Counts[3] = 9
	w.Marks[5] = true
	w.Queue = append(w.Queue, 1, 2)
	w.Counts[3] = 0
	w.Marks[5] = false
	w.Queue = w.Queue[:0]
	// Growing for a smaller n must not shrink (the build path refines
	// subgraphs through a workspace sized by the global vertex count),
	// and the tail must still be zeroed.
	w.Grow(4)
	checkInvariants(t, w, 4)
	if len(w.Counts) != 16 {
		t.Fatalf("Grow(4) shrank Counts to %d", len(w.Counts))
	}
	w.Grow(16)
	checkInvariants(t, w, 16)
	// Regrow past capacity reallocates (zero-valued fresh memory).
	w.Grow(1024)
	checkInvariants(t, w, 1024)
}

func TestWorkspacePoolRoundTrip(t *testing.T) {
	w := GetWorkspace(32)
	checkInvariants(t, w, 32)
	PutWorkspace(w)
	PutWorkspace(nil) // must not panic
	w2 := GetWorkspace(64)
	checkInvariants(t, w2, 64)
	PutWorkspace(w2)
}

// checkInvariants asserts the between-uses workspace invariants after a
// Grow(n): indexed buffers are at least n long (Grow is extend-only) and
// hold their zero/false values over their whole length.
func checkInvariants(t *testing.T, w *Workspace, n int) {
	t.Helper()
	if len(w.Counts) < n || len(w.Marks) < n {
		t.Fatalf("Counts/Marks len = %d/%d, want >= %d", len(w.Counts), len(w.Marks), n)
	}
	for i, c := range w.Counts {
		if c != 0 {
			t.Fatalf("Counts[%d] = %d, want 0", i, c)
		}
	}
	for i, m := range w.Marks {
		if m {
			t.Fatalf("Marks[%d] = true, want false", i)
		}
	}
	if len(w.Bits) < n {
		t.Fatalf("Bits len = %d, want >= %d", len(w.Bits), n)
	}
	for i, m := range w.Bits {
		if m {
			t.Fatalf("Bits[%d] = true, want false", i)
		}
	}
	if len(w.Queue) != 0 || len(w.Touched) != 0 || len(w.Keys) != 0 || len(w.Frags) != 0 {
		t.Fatalf("scratch slices not length 0: %d/%d/%d/%d",
			len(w.Queue), len(w.Touched), len(w.Keys), len(w.Frags))
	}
	if len(w.LocalIdx) < n || len(w.ColorCount) < n || len(w.Gamma) < n {
		t.Fatalf("LocalIdx/ColorCount/Gamma len = %d/%d/%d, want >= %d",
			len(w.LocalIdx), len(w.ColorCount), len(w.Gamma), n)
	}
	for i := range w.LocalIdx {
		if w.LocalIdx[i] != 0 || w.ColorCount[i] != 0 {
			t.Fatalf("LocalIdx[%d]/ColorCount[%d] = %d/%d, want 0",
				i, i, w.LocalIdx[i], w.ColorCount[i])
		}
	}
	if len(w.IntsA) != 0 || len(w.IntsB) != 0 || len(w.IntsC) != 0 || len(w.Bytes) != 0 {
		t.Fatalf("list buffers not length 0: %d/%d/%d/%d",
			len(w.IntsA), len(w.IntsB), len(w.IntsC), len(w.Bytes))
	}
	if w.PairCount == nil || len(w.PairCount) != 0 {
		t.Fatalf("PairCount = %v, want empty non-nil map", w.PairCount)
	}
}
