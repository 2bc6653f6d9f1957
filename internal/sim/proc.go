package sim

import (
	"fmt"

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
// process goroutines.
type procKilled struct{}

// Proc is a simulated process: a goroutine that runs in virtual time.
// Exactly one process goroutine executes at a time; a process runs until it
// parks (Sleep, Cond.Wait, WaitTimer) and the event loop resumes it when its
// wakeup event fires. This gives application code ordinary blocking
// semantics with fully deterministic scheduling.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	state  procState
	killed bool
}

// Spawn starts fn as a new process. The process begins executing at the
// current virtual time, after already-queued same-time events.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.procs[p] = struct{}{}
	e.Schedule(0, func() { p.start(fn) })
	return p
}

// start launches the process goroutine and waits for it to park or finish.
// It runs in event-loop context.
func (p *Proc) start(fn func(p *Proc)) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// Re-panic on the process goroutine: a real bug.
					// The engine goroutine is blocked on parked, so
					// crash loudly rather than deadlock.
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}
			p.state = procDone
			delete(p.eng.procs, p)
			p.eng.parked <- struct{}{}
		}()
		fn(p)
	}()
	<-p.eng.parked
}

// park hands control back to the event loop and blocks until resumed.
func (p *Proc) park() {
	p.state = procParked
	p.eng.parked <- struct{}{}
	<-p.resume
	p.state = procRunning
	if p.killed {
		panic(procKilled{})
	}
}

// wake schedules an event that resumes p. It is the only way to restart a
// parked process and must be called exactly once per park.
func (p *Proc) wake() { p.eng.ScheduleCall(0, resumeProc, p) }

// resumeProc is the one wakeup handler every Proc shares (arg is the *Proc),
// so waking and sleeping schedule without a closure.
func resumeProc(arg any) {
	p := arg.(*Proc)
	if p.state != procParked {
		return // process was killed or already woken
	}
	p.resume <- struct{}{}
	<-p.eng.parked
}

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
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until the condition is signaled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// WaitTimeout parks p until the condition is signaled or d elapses. It
// reports false on timeout. A signaled waiter is removed from the wait list
// by Signal/Broadcast; a timed-out waiter removes itself.
func (c *Cond) WaitTimeout(p *Proc, d units.Duration) bool {
	timedOut := false
	timer := c.eng.Schedule(d, func() {
		if p.state != procParked {
			return
		}
		// Remove p from the waiter list so a later Signal skips it.
		for i, w := range c.waiters {
			if w == p {
				c.removeWaiter(i)
				break
			}
		}
		timedOut = true
		p.resume <- struct{}{}
		<-c.eng.parked
	})
	c.waiters = append(c.waiters, p)
	p.park()
	timer.Stop()
	return !timedOut
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
