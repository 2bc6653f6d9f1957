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
