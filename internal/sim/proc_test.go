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
	c := NewCond()
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
	c := NewCond()
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

func TestShutdownKillsParked(t *testing.T) {
	e := New(1)
	c := NewCond()
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
	c := NewCond()
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
// deep, one in Sleep with its timer still pending, and one that was
// spawned but never started.
func TestShutdownUnwindsDefers(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(1)
	c := NewCond()
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
	sleepUnwound := false
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { sleepUnwound = true }()
		p.Sleep(units.Minute)
		t.Error("killed process continued past Sleep")
	})
	e.RunFor(units.Second)
	e.Spawn("unstarted", func(p *Proc) { t.Error("a process started by nobody ran") })
	if e.Pending() != 2 { // the Sleep timer and the start event
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Shutdown()
	if want := []string{"level3", "level2", "level1"}; !slices.Equal(unwound, want) {
		t.Fatalf("defers ran as %v, want %v", unwound, want)
	}
	if !sleepUnwound {
		t.Fatal("process parked in Sleep was not unwound")
	}
	if len(e.procs) != 0 {
		t.Fatalf("procs remaining: %d", len(e.procs))
	}
}

// The fleet's shard workers drive one engine from a different goroutine at
// each barrier; processes parked under one driver resume under the next.
// Run under -race: the hand-off between drivers is the only ordering.
func TestEngineDrivenFromChangingGoroutines(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(1)
	c := NewCond()
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
