package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the load generator's time source, as offsets from the start
// of a phase; tests substitute a fake one.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

// SleepUntil sleeps in nanosleep(2) rather than time.Sleep: the Go
// runtime's timers fire up to a millisecond late on Linux (its poller
// waits in whole milliseconds), which alone would exceed the open loop's
// lateness limit; the system call wakes within tens of microseconds. A
// signal (the runtime preempts with SIGURG) cuts the sleep short, so it
// loops until the time has come.
func (c wallClock) SleepUntil(t time.Duration) {
	for d := t - c.Now(); d > 0; d = t - c.Now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// load holds what one load phase observed, per request index, in the
// phase clock. A request that was never sent has sent[i] false.
type load struct {
	sent       []bool
	start, end []time.Duration // send start and completion
	lag        []time.Duration // open loop: how late the timer woke the sender
}

// latency returns request i's latency. In an open loop it counts from the
// due time, so a request held back by a stalled predecessor is charged
// the wait; in a closed loop it counts from the send.
func (l *load) latency(i int, due []time.Duration) time.Duration {
	if due != nil {
		return l.end[i] - due[i]
	}
	return l.end[i] - l.start[i]
}

// runLoad sends requests over conns connections, each connection taking
// the next unsent request. With due non-nil it is an open loop: request
// i waits for due[i] and goes out as soon as a connection is free after
// that. With due nil it is a closed loop over n requests that stops
// issuing at stop. send performs request i on connection c; check, if
// non-nil, then runs outside the timed interval (to verify the answer).
func runLoad(clk clock, due []time.Duration, n, conns int, stop time.Duration, send, check func(c, i int)) *load {
	if due != nil {
		n = len(due)
	}
	l := &load{
		sent:  make([]bool, n),
		start: make([]time.Duration, n),
		end:   make([]time.Duration, n),
		lag:   make([]time.Duration, n),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if due != nil {
					if now := clk.Now(); now < due[i] {
						clk.SleepUntil(due[i])
						l.lag[i] = clk.Now() - due[i]
					}
				} else if clk.Now() >= stop {
					return
				}
				l.start[i] = clk.Now()
				send(c, i)
				l.end[i] = clk.Now()
				l.sent[i] = true
				if check != nil {
					check(c, i)
				}
			}
		}(c)
	}
	wg.Wait()
	return l
}
