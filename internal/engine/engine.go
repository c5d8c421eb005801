// Package engine is the resource-control substrate of the compute stack:
// one Budget type for every bound the system enforces (whole-build
// deadline and whole-build search-node cap), a cancellation controller
// (Ctl) threaded from the serving layer down into the refinement and
// backtrack-search hot loops, and reusable scratch workspaces that make
// the 1-WL refinement allocation-free.
//
// The paper runs every labeler under a hard two-hour budget;
// nauty/Traces and bliss likewise treat resource-bounded, restartable
// search as a first-class engine concern. This package gives our
// reproduction the same property: a context canceled at the HTTP layer
// (client disconnect, request timeout) or an exhausted budget stops an
// in-flight DviCL build within a bounded number of search steps and
// surfaces a typed error instead of silently running on.
//
// Layering: engine sits below coloring/canon/core/ssm and above only
// internal/obs — it must never import the algorithm packages.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrCanceled reports that the caller's context was canceled (client
// disconnect, request timeout, shutdown) while a build, search, or query
// was in flight. Partial statistics remain valid; partial results must
// not be used as canonical forms.
var ErrCanceled = errors.New("dvicl: canceled")

// ErrBudgetExceeded reports that the operation exhausted its Budget (the
// whole-build deadline or search-node cap — the paper's two-hour-timeout
// analogue). Partial statistics remain valid; partial results must not
// be used as canonical forms.
var ErrBudgetExceeded = errors.New("dvicl: budget exceeded")

// InternalError is a broken internal invariant surfaced as a value
// instead of a panic, so a pathological input degrades into a failed
// request rather than a dead daemon. It wraps nothing: an InternalError
// is a bug report, and its Op names the invariant that broke.
type InternalError struct {
	// Op is the function whose invariant broke, e.g. "core.combineCL".
	Op string
	// Msg describes the broken invariant.
	Msg string
}

// Error formats the invariant violation.
func (e *InternalError) Error() string {
	return fmt.Sprintf("dvicl: internal error in %s: %s", e.Op, e.Msg)
}

// Internalf builds an *InternalError.
func Internalf(op, format string, args ...any) *InternalError {
	return &InternalError{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Budget bounds one canonical-labeling build end to end, as the paper's
// evaluation kills whole runs at two hours. The zero value means
// unlimited. Whichever bound trips first stops the build with
// ErrBudgetExceeded, so a labeling is returned only from a search that
// finished.
type Budget struct {
	// BuildTimeout bounds one whole build (or baseline search) by wall
	// clock, measured from NewCtl. It composes with any context deadline:
	// the earlier one wins. Exceeding it returns ErrBudgetExceeded.
	BuildTimeout time.Duration
	// MaxNodes bounds the total search-tree nodes visited across every
	// leaf search of one build. Exceeding it returns ErrBudgetExceeded.
	MaxNodes int64
}

// pollEvery is how many Tick calls pass between cancellation polls: the
// controller trades one select + clock read for this many cheap atomic
// increments. At typical search-node costs (microseconds each) a poll
// gap of 64 nodes keeps cancellation latency well under a millisecond.
const pollEvery = 64

// Ctl is the cancellation and whole-build budget controller for one
// build: the hot loops call Tick (search-tree nodes) or Poll (refinement
// rounds, tree nodes) and stop when it returns non-nil. A Ctl is shared
// by every goroutine of a parallel build — all methods are safe for
// concurrent use, and the first error latches so every worker observes
// the same outcome. A nil *Ctl is a valid no-op controller (the
// unbudgeted legacy path costs one predictable branch per checkpoint).
type Ctl struct {
	done     <-chan struct{} // context cancellation; nil = none
	ctx      context.Context // for Cause; nil iff done == nil
	deadline time.Time       // whole-build deadline; zero = none
	maxNodes int64           // whole-build node cap; 0 = none

	nodes atomic.Int64 // search nodes consumed (across goroutines)
	ticks atomic.Int64 // Tick calls since start (poll rate limiting)
	halt  atomic.Int32 // 0 = running, 1 = canceled, 2 = budget exceeded
}

// NewCtl builds the controller for one build under ctx and b. It
// returns nil — the no-op controller — when there is nothing to
// enforce: no cancelable context, no whole-build deadline, no node cap.
func NewCtl(ctx context.Context, b Budget) *Ctl {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	deadline := time.Time{}
	if b.BuildTimeout > 0 {
		deadline = time.Now().Add(b.BuildTimeout)
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	if done == nil && deadline.IsZero() && b.MaxNodes <= 0 {
		return nil
	}
	return &Ctl{done: done, ctx: ctx, deadline: deadline, maxNodes: b.MaxNodes}
}

// Tick charges n search-tree nodes against the whole-build node budget
// and polls for cancellation every pollEvery calls. It returns the
// latched error once the build is stopped.
func (c *Ctl) Tick(n int64) error {
	if c == nil {
		return nil
	}
	if h := c.halt.Load(); h != 0 {
		return c.haltErr(h)
	}
	if c.maxNodes > 0 && c.nodes.Add(n) > c.maxNodes {
		c.halt.CompareAndSwap(0, 2)
		return c.haltErr(c.halt.Load())
	}
	if c.ticks.Add(1)%pollEvery != 0 {
		return nil
	}
	return c.Poll()
}

// Poll checks cancellation and the whole-build deadline immediately,
// without charging any nodes. Loops whose iterations are substantial
// (a refinement round, a tree node) call Poll directly; per-search-node
// checkpoints use Tick, which rate-limits its polls.
func (c *Ctl) Poll() error {
	if c == nil {
		return nil
	}
	if h := c.halt.Load(); h != 0 {
		return c.haltErr(h)
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.halt.CompareAndSwap(0, 1)
			return c.haltErr(c.halt.Load())
		default:
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.halt.CompareAndSwap(0, 2)
		return c.haltErr(c.halt.Load())
	}
	return nil
}

func (c *Ctl) haltErr(h int32) error {
	if h == 1 {
		if c.ctx != nil {
			if cause := context.Cause(c.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
				return fmt.Errorf("%w: %v", ErrCanceled, cause)
			}
		}
		return ErrCanceled
	}
	return ErrBudgetExceeded
}
