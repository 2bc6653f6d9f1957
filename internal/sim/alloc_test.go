package sim

import (
	"testing"

	"element/internal/units"
)

func noop() {}

// TestScheduleStepZeroAlloc pins the event core's cost contract: once the
// slab and heap have grown to the peak queue depth, scheduling and firing
// an event allocates nothing.
func TestScheduleStepZeroAlloc(t *testing.T) {
	e := New(1)
	delay := func() units.Duration { return units.Duration(1 + e.Rand().Intn(1000)) }
	for i := 0; i < 1024; i++ {
		e.Schedule(delay(), noop)
	}
	// Warm-up: one spare slot so Schedule-before-Step never grows the slab.
	e.Schedule(delay(), noop)
	e.Step()
	if n := testing.AllocsPerRun(2000, func() {
		e.Schedule(delay(), noop)
		e.Step()
	}); n != 0 {
		t.Fatalf("Schedule+Step at 1024 pending allocates %v per event, want 0", n)
	}
	if e.Pending() != 1024 {
		t.Fatalf("Pending = %d, want 1024", e.Pending())
	}
}

// TestSleepZeroAlloc: a Proc.Sleep round trip (schedule the wakeup, park,
// fire, resume) allocates nothing.
func TestSleepZeroAlloc(t *testing.T) {
	e := New(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(units.Millisecond)
		}
	})
	e.Step() // start the process; it parks in its first Sleep
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("Sleep round trip allocates %v, want 0", n)
	}
	e.Shutdown()
}

// TestCondZeroAllocAndNoLeak: a Wait/Broadcast (and Wait/Signal) cycle
// reuses the waiter list's backing array, and vacated entries are nil-ed so
// the list pins no process that is no longer waiting.
func TestCondZeroAllocAndNoLeak(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wakeup func(c *Cond)
	}{
		{"Broadcast", (*Cond).Broadcast},
		{"Signal", func(c *Cond) { c.Signal(); c.Signal(); c.Signal() }},
	} {
		e := New(1)
		c := NewCond(e)
		for i := 0; i < 3; i++ {
			e.Spawn("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
		}
		e.Run() // all three are parked in Wait
		cycle := func() {
			tc.wakeup(c)
			e.Run() // each waiter resumes and waits again
		}
		cycle()
		if n := testing.AllocsPerRun(500, cycle); n != 0 {
			t.Errorf("%s: Wait/wakeup cycle allocates %v, want 0", tc.name, n)
		}
		if c.NumWaiters() != 3 {
			t.Fatalf("%s: %d waiters, want 3", tc.name, c.NumWaiters())
		}
		tc.wakeup(c)
		if c.NumWaiters() != 0 {
			t.Fatalf("%s: %d waiters after waking all", tc.name, c.NumWaiters())
		}
		if cap(c.waiters) < 3 {
			t.Errorf("%s: waiter list lost its backing array (cap %d)", tc.name, cap(c.waiters))
		}
		for i, p := range c.waiters[:cap(c.waiters)] {
			if p != nil {
				t.Errorf("%s: vacated waiter slot %d still points at a process", tc.name, i)
			}
		}
		e.Run()
		e.Shutdown()
	}
}
