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

// TestLaneZeroAlloc: adding a lane entry and firing one allocates nothing
// once the ring has grown to the number in flight (64 here, so every fire
// also moves the next entry's key into the heap).
func TestLaneZeroAlloc(t *testing.T) {
	e := New(1)
	l := e.NewLane(func(any) {})
	arg := any(e) // pointer-shaped: boxing it does not allocate
	at := units.Time(0)
	add := func() {
		at += units.Time(1 + e.Rand().Intn(1000))
		l.At(at, arg)
	}
	for i := 0; i < 65; i++ {
		add()
	}
	e.Step()
	if n := testing.AllocsPerRun(2000, func() {
		add()
		e.Step()
	}); n != 0 {
		t.Fatalf("Lane.At+Step at 64 in flight allocates %v per entry, want 0", n)
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want 64", e.Pending())
	}
}

// TestStopRearmZeroAlloc: stopping a far-future timer and arming its
// replacement — TCP's RTO on every ACK — allocates nothing and leaves the
// heap no larger: the stopped key is gone, not waiting for its deadline.
func TestStopRearmZeroAlloc(t *testing.T) {
	e := New(1)
	tm := e.Schedule(units.Second, noop)
	if n := testing.AllocsPerRun(2000, func() {
		tm.Stop()
		tm = e.Schedule(units.Second, noop)
		e.Schedule(1, noop)
		e.Step()
	}); n != 0 {
		t.Fatalf("Stop+re-arm allocates %v, want 0", n)
	}
	if len(e.heap) != 1 || len(e.slab) != 2 {
		t.Fatalf("after 2000 re-arms the heap holds %d keys over %d slots, want 1 over 2", len(e.heap), len(e.slab))
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
		c := NewCond()
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
