package sim

import (
	"testing"

	"element/internal/units"
)

func TestStopFromProcess(t *testing.T) {
	e := New(1)
	after := false
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * units.Millisecond)
		e.Stop()
	})
	e.Schedule(20*units.Millisecond, func() { after = true })
	e.Run()
	if after {
		t.Fatal("event after Stop executed")
	}
	if e.Now() != units.Time(10*units.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Shutdown()
}

// TestStopIsNotSticky: Stop ends the Run or RunUntil in progress and no
// later one. (It used to latch: every later RunUntil executed nothing yet
// moved the clock past the events it skipped, and every later Run executed
// one event.)
func TestStopIsNotSticky(t *testing.T) {
	e := New(1)
	var fired []units.Time
	for i := 1; i <= 6; i++ {
		e.At(units.Time(i*10), func() {
			fired = append(fired, e.Now())
			if e.Now() == 20 || e.Now() == 40 {
				e.Stop()
			}
		})
	}
	e.Run()
	if len(fired) != 2 || e.Now() != 20 {
		t.Fatalf("Run with Stop at 20: fired %v, clock %v", fired, e.Now())
	}
	// Stopped early, RunUntil leaves the clock at the event it stopped on:
	// the events at 50 and 60 are still due before 100.
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 40 {
		t.Fatalf("RunUntil(100) with Stop at 40: fired %v, clock %v", fired, e.Now())
	}
	e.RunUntil(55)
	if len(fired) != 5 || e.Now() != 55 {
		t.Fatalf("RunUntil(55): fired %v, clock %v", fired, e.Now())
	}
	e.Run()
	if len(fired) != 6 || e.Pending() != 0 {
		t.Fatalf("final Run: fired %v, %d pending", fired, e.Pending())
	}
}

func TestRunUntilLeavesParkedProcsIntact(t *testing.T) {
	e := New(1)
	var wakes []units.Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(100 * units.Millisecond)
			wakes = append(wakes, p.Now())
		}
	})
	e.RunUntil(units.Time(250 * units.Millisecond))
	if len(wakes) != 2 {
		t.Fatalf("wakes after first window = %d", len(wakes))
	}
	// Resuming the clock must continue the same process seamlessly.
	e.RunUntil(units.Time(600 * units.Millisecond))
	if len(wakes) != 5 {
		t.Fatalf("wakes after second window = %d", len(wakes))
	}
	e.Shutdown()
}

func TestTimerStopInsideOwnCallback(t *testing.T) {
	e := New(1)
	var tm Timer
	ran := false
	tm = e.Schedule(units.Millisecond, func() {
		ran = true
		if tm.Stop() {
			t.Error("Stop inside own callback returned true")
		}
	})
	e.Run()
	if !ran {
		t.Fatal("callback did not run")
	}
}

func TestManyProcsDeterministicOrder(t *testing.T) {
	run := func() []int {
		e := New(5)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(units.Duration(e.Rand().Intn(10)+1) * units.Millisecond)
				order = append(order, i)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatal("missing wakeups")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic process order at %d", i)
		}
	}
}
