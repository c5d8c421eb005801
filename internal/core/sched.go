package core

import (
	"sync"

	"dvicl/internal/engine"
	"dvicl/internal/obs"
)

// sched is the per-build work-stealing scheduler: Workers goroutines are
// started once per BuildCtx (the caller's goroutine is worker 0, so
// Workers-1 are spawned), each owning a long-lived worker{ws, slab} pair
// — workspaces are checked out of the engine pool once per worker, not
// once per divided child as the old token-bucket fan-out did.
//
// Every worker owns one deque. buildChildren pushes its divided children
// onto the pushing worker's own deque; the owner pops from the tail
// (LIFO — the child it just divided is hot in cache and its arena frame
// is the deepest one open) while idle workers steal from the head (FIFO
// — the oldest task is the widest subtree, so a thief gets the most
// work per steal). Deep chains of binary divides therefore keep every
// core busy: each divide leaves one child on the deque for a thief while
// the owner descends into the other.
//
// All scheduler state is guarded by one mutex. That is deliberate: tasks
// are whole-subtree builds (milliseconds to seconds), so the lock is
// uncontended in practice, and the mutex gives the exact happens-before
// edges the tree assembly needs — a task's writes (its *Node, everything
// reachable from it, and everything it read out of the parent's arena
// frame) happen before the joiner's read because finish releases and
// joinWait acquires the same lock.
//
// Determinism: tasks carry their result slot (nodes[i] in
// buildChildren), so no matter which worker runs a task or in what
// order, every child lands at its divide-order index, and combineST's
// stable certificate sort sees the identical input it would have seen
// sequentially. Scheduling only moves work between cores; it never
// reorders the tree.
type sched struct {
	rec *obs.Recorder

	mu   sync.Mutex
	cond *sync.Cond
	// deques[id] is worker id's deque. Owner pushes and pops at the tail,
	// thieves take from the head.
	deques [][]func(*worker)
	// stopped tells the spawned workers to exit once the deques drain.
	stopped bool
	// failed latches the first error any task returned. Later tasks
	// observe it and skip their build entirely, so a canceled or
	// over-budget build unwinds without paying for queued subtrees.
	failed error

	// Scheduling-effort tallies, flushed to rec as obs.SchedSteals /
	// obs.SchedDequeHighWater when the pool stops.
	steals    int64
	highWater int64

	wg sync.WaitGroup
}

// join tracks one buildChildren barrier: remaining counts unfinished
// tasks, err holds the first error among them. Both fields are guarded
// by the scheduler mutex.
type join struct {
	remaining int
	err       error
}

func newSched(workers int, rec *obs.Recorder) *sched {
	s := &sched{rec: rec, deques: make([][]func(*worker), workers)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the spawned workers (ids 1..workers-1; the build
// goroutine itself is worker 0). n is the global vertex count — every
// workspace must be sized by it, since LocalIdx is indexed by original
// vertex ids and ColorCount/Gamma by global colors.
func (s *sched) start(n int) {
	for id := 1; id < len(s.deques); id++ {
		s.wg.Add(1)
		go func(id int) {
			defer s.wg.Done()
			wk := &worker{id: id, ws: engine.GetWorkspace(n)}
			defer engine.PutWorkspace(wk.ws)
			s.workerLoop(wk)
		}(id)
	}
}

// stop shuts the pool down and flushes the scheduling counters. It must
// only be called after the root build has returned: at that point every
// join has completed, so the deques are empty and the workers are idle.
func (s *sched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	steals, hw := s.steals, s.highWater
	s.mu.Unlock()
	s.wg.Wait()
	s.rec.Add(obs.SchedSteals, steals)
	s.rec.Add(obs.SchedDequeHighWater, hw)
}

// workerLoop is a spawned worker's life: run tasks until stopped.
func (s *sched) workerLoop(wk *worker) {
	s.mu.Lock()
	for {
		if t, ok := s.nextLocked(wk.id); ok {
			s.mu.Unlock()
			s.runTask(t, wk)
			s.mu.Lock()
			continue
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.cond.Wait()
	}
}

// runTask executes t, timing the outermost task on this worker as
// PhaseWorkerBusy. Tasks nest — a task's own joinWait helps run other
// tasks — and only the outermost span is recorded, so a worker's busy
// total never double-counts and the per-worker utilization reads
// directly as busy/wall.
func (s *sched) runTask(t func(*worker), wk *worker) {
	if wk.busy {
		t(wk)
		return
	}
	wk.busy = true
	span := obs.StartUnder(s.rec, nil, obs.PhaseWorkerBusy)
	t(wk)
	span.End()
	wk.busy = false
}

// nextLocked returns the next task for worker id: its own newest task
// (tail pop), else the oldest task of the first non-empty deque after it
// (head steal). Caller holds s.mu.
func (s *sched) nextLocked(id int) (func(*worker), bool) {
	if dq := s.deques[id]; len(dq) > 0 {
		t := dq[len(dq)-1]
		dq[len(dq)-1] = nil
		s.deques[id] = dq[:len(dq)-1]
		return t, true
	}
	for off := 1; off < len(s.deques); off++ {
		victim := (id + off) % len(s.deques)
		dq := s.deques[victim]
		if len(dq) == 0 {
			continue
		}
		t := dq[0]
		// Shift rather than re-slice so the backing array keeps being
		// reused by the owner's tail pushes.
		copy(dq, dq[1:])
		dq[len(dq)-1] = nil
		s.deques[victim] = dq[:len(dq)-1]
		s.steals++
		return t, true
	}
	return nil, false
}

// push appends tasks to wk's own deque and wakes idle workers.
func (s *sched) push(wk *worker, tasks []func(*worker)) {
	s.mu.Lock()
	s.deques[wk.id] = append(s.deques[wk.id], tasks...)
	if d := int64(len(s.deques[wk.id])); d > s.highWater {
		s.highWater = d
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abortErr returns the latched first error, if any build task failed.
func (s *sched) abortErr() error {
	s.mu.Lock()
	err := s.failed
	s.mu.Unlock()
	return err
}

// finish marks one task of jn done. A non-nil err latches into both the
// join (so the joiner unwinds with it) and the scheduler (so tasks not
// yet started skip their builds).
func (s *sched) finish(jn *join, err error) {
	s.mu.Lock()
	if err != nil {
		if jn.err == nil {
			jn.err = err
		}
		if s.failed == nil {
			s.failed = err
		}
	}
	jn.remaining--
	if jn.remaining == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// joinWait blocks worker wk until every task of jn has finished,
// helping: while the join is open it keeps executing tasks (its own
// first, then steals), so a worker waiting on its children is never
// idle while any work exists, and a deep chain of nested joins cannot
// deadlock — the tasks a join waits on are always runnable by the
// waiter itself. Nested task execution preserves the arena's LIFO frame
// discipline: a helped task runs to completion (its frames fully pushed
// and popped) before the waiter's own frame is touched again.
func (s *sched) joinWait(jn *join, wk *worker) error {
	s.mu.Lock()
	for jn.remaining > 0 {
		if t, ok := s.nextLocked(wk.id); ok {
			s.mu.Unlock()
			s.runTask(t, wk)
			s.mu.Lock()
			continue
		}
		s.cond.Wait()
	}
	err := jn.err
	s.mu.Unlock()
	return err
}
