package sim

import (
	"slices"
	"strings"
	"testing"

	"element/internal/testutil"
	"element/internal/units"
)

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wakeups []units.Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * units.Millisecond)
			wakeups = append(wakeups, p.Now())
		}
	})
	e.Run()
	want := []units.Time{
		units.Time(10 * units.Millisecond),
		units.Time(20 * units.Millisecond),
		units.Time(30 * units.Millisecond),
	}
	if len(wakeups) != 3 {
		t.Fatalf("wakeups = %v", wakeups)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(5 * units.Millisecond)
		order = append(order, "a1")
		p.Sleep(10 * units.Millisecond)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(10 * units.Millisecond)
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondSignal(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var got []string
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		got = append(got, "woken")
	})
	e.Schedule(50*units.Millisecond, func() { c.Signal() })
	e.Run()
	if len(got) != 1 || got[0] != "woken" {
		t.Fatalf("got = %v", got)
	}
	if e.Now() != units.Time(50*units.Millisecond) {
		t.Fatalf("woke at %v", e.Now())
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Schedule(units.Millisecond, func() {
		if c.NumWaiters() != 5 {
			t.Errorf("NumWaiters = %d, want 5", c.NumWaiters())
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var signaled, timedOut bool
	e.Spawn("timeout", func(p *Proc) {
		ok := c.WaitTimeout(p, 10*units.Millisecond)
		timedOut = !ok
		if p.Now() != units.Time(10*units.Millisecond) {
			t.Errorf("timeout at %v, want 10ms", p.Now())
		}
	})
	e.Spawn("signaled", func(p *Proc) {
		p.Sleep(units.Millisecond) // let the first waiter enqueue first
		ok := c.WaitTimeout(p, units.Minute)
		signaled = ok
	})
	// After the first waiter times out, only the second remains.
	e.Schedule(20*units.Millisecond, func() { c.Signal() })
	e.Run()
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !signaled {
		t.Fatal("second waiter should have been signaled")
	}
	e.Shutdown()
}

// A waiter that is signaled and then sleeps must not be woken by its stale
// timeout timer.
func TestCondTimeoutNoStaleWake(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var wake units.Time
	e.Spawn("w", func(p *Proc) {
		if !c.WaitTimeout(p, 100*units.Millisecond) {
			t.Error("unexpected timeout")
		}
		p.Sleep(units.Second)
		wake = p.Now()
	})
	e.Schedule(units.Millisecond, func() { c.Signal() })
	e.Run()
	want := units.Time(units.Millisecond + units.Second)
	if wake != want {
		t.Fatalf("woke at %v, want %v", wake, want)
	}
}

func TestShutdownKillsParked(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	reached := false
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p) // never signaled
		reached = true
	})
	e.RunFor(units.Second)
	e.Shutdown()
	if reached {
		t.Fatal("killed process continued past Wait")
	}
	if len(e.procs) != 0 {
		t.Fatalf("procs remaining: %d", len(e.procs))
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("parent", func(p *Proc) {
		order = append(order, "parent")
		e.Spawn("child", func(q *Proc) {
			order = append(order, "child")
		})
		p.Sleep(units.Millisecond)
		order = append(order, "parent-after")
	})
	e.Run()
	want := []string{"parent", "child", "parent-after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcSignalWhileRunnable(t *testing.T) {
	// Signal scheduling a wake for a process that re-waits quickly must not
	// double-wake it.
	e := New(1)
	c := NewCond(e)
	count := 0
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Wait(p)
			count++
		}
	})
	for i := 1; i <= 3; i++ {
		e.Schedule(units.Duration(i)*units.Millisecond, func() { c.Signal() })
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

// A bug inside a process must crash the caller of the event loop, loudly
// and by name: the panic comes out of Step on the goroutine driving the
// engine, where a test or a main can see (or recover) it.
func TestProcPanicSurfacesFromStep(t *testing.T) {
	e := New(1)
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(units.Millisecond)
		panic("boom")
	})
	e.Step() // start; the process parks in Sleep
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `sim: process "buggy" panicked: boom`) {
			t.Fatalf("recovered %q, want the process name and the panic value", msg)
		}
	}()
	e.Step()
	t.Fatal("Step returned although the process panicked")
}

// Shutdown unwinds every kind of parked process through its deferred calls,
// innermost first, and leaves no goroutine behind: one parked three calls
// deep, one in WaitTimeout with its timer still pending, and one that was
// spawned but never started.
func TestShutdownUnwindsDefers(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(1)
	c := NewCond(e)
	var unwound []string
	level3 := func(p *Proc) {
		defer func() { unwound = append(unwound, "level3") }()
		c.Wait(p) // never signaled
		t.Error("killed process continued past Wait")
	}
	level2 := func(p *Proc) {
		defer func() { unwound = append(unwound, "level2") }()
		level3(p)
	}
	e.Spawn("deep", func(p *Proc) {
		defer func() { unwound = append(unwound, "level1") }()
		level2(p)
	})
	timedWaitUnwound := false
	e.Spawn("timed", func(p *Proc) {
		defer func() { timedWaitUnwound = true }()
		NewCond(e).WaitTimeout(p, units.Minute)
		t.Error("killed process continued past WaitTimeout")
	})
	e.RunFor(units.Second)
	e.Spawn("unstarted", func(p *Proc) { t.Error("a process started by nobody ran") })
	if e.Pending() != 2 { // the WaitTimeout timer and the start event
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Shutdown()
	if want := []string{"level3", "level2", "level1"}; !slices.Equal(unwound, want) {
		t.Fatalf("defers ran as %v, want %v", unwound, want)
	}
	if !timedWaitUnwound {
		t.Fatal("process parked in WaitTimeout was not unwound")
	}
	if len(e.procs) != 0 {
		t.Fatalf("procs remaining: %d", len(e.procs))
	}
}

// Signal and the timeout landing on the same virtual instant wake the
// waiter exactly once, whichever event is queued first: a second wake-up
// would fire into the Sleep that follows and cut it short.
func TestCondSignalAndTimeoutSameInstant(t *testing.T) {
	const at = 10 * units.Millisecond
	for _, tc := range []struct {
		name     string
		signaled bool // WaitTimeout's verdict: the earlier event wins
		arrange  func(e *Engine, c *Cond)
	}{
		// Queued before the process starts, so ahead of its timeout timer.
		{"signal first", true, func(e *Engine, c *Cond) { e.Schedule(at, c.Signal) }},
		// Queued at 1 ms, after the timer (armed at 0), for the same instant.
		{"timeout first", false, func(e *Engine, c *Cond) {
			e.Schedule(units.Millisecond, func() { e.Schedule(at-units.Millisecond, c.Signal) })
		}},
	} {
		e := New(1)
		c := NewCond(e)
		tc.arrange(e, c)
		wakes := 0
		var got bool
		var woke, slept units.Time
		e.Spawn("w", func(p *Proc) {
			got = c.WaitTimeout(p, at)
			wakes++
			woke = p.Now()
			p.Sleep(units.Second)
			slept = p.Now()
		})
		e.Run()
		if wakes != 1 || got != tc.signaled || woke != units.Time(at) {
			t.Errorf("%s: %d wakes, signaled=%v at %v; want 1, %v at %v", tc.name, wakes, got, woke, tc.signaled, at)
		}
		if want := units.Time(at + units.Second); slept != want {
			t.Errorf("%s: the following Sleep ended at %v, want %v", tc.name, slept, want)
		}
		if c.NumWaiters() != 0 {
			t.Errorf("%s: %d waiters left", tc.name, c.NumWaiters())
		}
	}
}

// The fleet's shard workers drive one engine from a different goroutine at
// each barrier; processes parked under one driver resume under the next.
// Run under -race: the hand-off between drivers is the only ordering.
func TestEngineDrivenFromChangingGoroutines(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(1)
	c := NewCond(e)
	ticks, woken := 0, 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(units.Millisecond)
			if ticks++; ticks%4 == 0 {
				c.Signal()
			}
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			woken++
		}
	})
	for i := 1; i <= 8; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.RunUntil(units.Time(i) * units.Time(10*units.Millisecond))
		}()
		<-done
	}
	e.Shutdown()
	if ticks != 80 || woken != 20 {
		t.Fatalf("ticks=%d woken=%d, want 80 and 20", ticks, woken)
	}
}
