package sim

import (
	"fmt"
	"iter"
	"runtime/debug"

	"element/internal/units"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunning procState = iota
	procParked
	procDone
)

// procKilled is the panic sentinel used by Engine.Shutdown to unwind parked
// processes through their deferred calls.
type procKilled struct{}

// Proc is a simulated process: a coroutine that runs in virtual time.
// Exactly one of {the event loop, one process} executes at a time; a
// process runs until it parks (Sleep, Cond.Wait) and the event loop
// resumes it when its wakeup event fires. This gives application code
// ordinary blocking semantics with fully deterministic scheduling. The
// coroutine is an iter.Pull over the process body, so a hand-off is one
// direct switch each way and never goes through the Go scheduler.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // run the process to its next park; false once it has finished
	yield  func(struct{}) bool     // park: hand control back to whoever called next
	state  procState
	killed bool
}

// Spawn starts fn as a new process. The process begins executing at the
// current virtual time, after already-queued same-time events.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs[p] = struct{}{}
	e.Schedule(0, func() { p.start(fn) })
	return p
}

// start creates the process coroutine and runs it to its first park (or to
// completion). It runs in event-loop context.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = procDone
			delete(p.eng.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// A real bug: crash loudly. iter.Pull re-raises this
					// from next, on the goroutine driving the engine, so
					// the process's own stack travels in the message.
					panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
				}
			}
		}()
		fn(p)
	})
	p.next()
}

// park hands control back to the event loop and blocks until resumed.
func (p *Proc) park() {
	p.state = procParked
	p.yield(struct{}{})
	p.state = procRunning
	if p.killed {
		panic(procKilled{})
	}
}

// run switches to p until it parks again or finishes, and does nothing
// unless p is parked (not started yet, already woken, or finished). Every
// resumption — wake-up events, Shutdown — is this call, from event-loop
// context.
func (p *Proc) run() {
	if p.state == procParked {
		p.next()
	}
}

// wake schedules an event that resumes p. It is the only way to restart a
// parked process and must be called exactly once per park.
func (p *Proc) wake() { p.eng.ScheduleCall(0, resumeProc, p) }

// resumeProc is the one wakeup handler every Proc shares (arg is the *Proc),
// so waking and sleeping schedule without a closure.
func resumeProc(arg any) { arg.(*Proc).run() }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.Now() }

// Name reports the process name (useful in traces and panics).
func (p *Proc) Name() string { return p.name }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d units.Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.ScheduleCall(d, resumeProc, p)
	p.park()
}

// Cond is a condition variable for processes. Waiters park until another
// event context calls Signal or Broadcast. As with sync.Cond, waiters must
// re-check their predicate in a loop. The waiter list keeps its backing
// array across wakeups (vacated slots are nil-ed so they pin no Proc).
type Cond struct {
	waiters []*Proc
}

// NewCond returns a condition variable. It needs no engine: a waiter is
// woken on its own.
func NewCond() *Cond { return &Cond{} }

// Wait parks p until the condition is signaled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.removeWaiter(0)
	p.wake()
}

// removeWaiter deletes waiters[i] in place, preserving order.
func (c *Cond) removeWaiter(i int) {
	n := len(c.waiters) - 1
	copy(c.waiters[i:], c.waiters[i+1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	// wake only queues an event, so nothing can Wait during the loop.
	for i, p := range c.waiters {
		p.wake()
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// NumWaiters reports how many processes are waiting on the condition.
func (c *Cond) NumWaiters() int { return len(c.waiters) }
