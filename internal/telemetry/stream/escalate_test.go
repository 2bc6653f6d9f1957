package stream

import (
	"testing"

	"element/internal/units"
)

const escWidth = units.Second

// feedWindow pushes n samples of the given delay spread through window
// idx and returns any state change observed while crossing into idx+1.
func feedWindow(e *Escalator, idx int64, n int, delay float64) (changed, escalated bool) {
	base := units.Time(idx) * units.Time(escWidth)
	for i := 0; i < n; i++ {
		at := base.Add(units.Duration(i+1) * units.Millisecond)
		e.Observe(at, delay)
	}
	// Cross into the next window to trigger evaluation.
	changed = e.AdvanceTo(units.Time(idx+1)*units.Time(escWidth) + 1)
	return changed, e.Escalated()
}

func TestEscalatorP99Rule(t *testing.T) {
	e := NewEscalator(Rules{P99Above: 500 * units.Millisecond}, escWidth)
	if _, esc := feedWindow(e, 0, 20, 0.1); esc {
		t.Fatal("escalated on a clean window")
	}
	changed, esc := feedWindow(e, 1, 20, 0.9)
	if !changed || !esc {
		t.Fatalf("p99 rule did not escalate: changed=%v esc=%v", changed, esc)
	}
	if e.Escalations() != 1 {
		t.Fatalf("escalations = %d", e.Escalations())
	}
	// One or two clean windows are not enough to demote...
	for idx := int64(2); idx < 4; idx++ {
		if _, esc := feedWindow(e, idx, 20, 0.1); !esc {
			t.Fatalf("demoted after %d clean windows", idx-1)
		}
	}
	// ...three are.
	changed, esc = feedWindow(e, 4, 20, 0.1)
	if !changed || esc {
		t.Fatalf("did not demote after cleanWindows: changed=%v esc=%v", changed, esc)
	}
	if e.Demotions() != 1 {
		t.Fatalf("demotions = %d", e.Demotions())
	}
}

func TestEscalatorMinSamplesGuard(t *testing.T) {
	e := NewEscalator(Rules{P99Above: 500 * units.Millisecond}, escWidth)
	if _, esc := feedWindow(e, 0, minSamples-1, 2.0); esc {
		t.Fatal("escalated below minSamples")
	}
	if _, esc := feedWindow(e, 1, minSamples, 2.0); !esc {
		t.Fatal("did not escalate at minSamples")
	}
}

func TestEscalatorIdleWindowsDoNotDemote(t *testing.T) {
	e := NewEscalator(Rules{P99Above: 100 * units.Millisecond}, escWidth)
	feedWindow(e, 0, 20, 1.0)
	if !e.Escalated() {
		t.Fatal("setup: not escalated")
	}
	// Skip many empty windows: no evidence either way, stay escalated.
	if _, esc := feedWindow(e, 50, 20, 1.0); !esc {
		t.Fatal("idle windows demoted the flow without evidence")
	}
}

func TestEscalatorFinish(t *testing.T) {
	e := NewEscalator(Rules{P99Above: 100 * units.Millisecond}, escWidth)
	base := units.Time(0)
	for i := 0; i < 20; i++ {
		e.Observe(base.Add(units.Duration(i+1)*units.Millisecond), 1.0)
	}
	if e.Escalated() {
		t.Fatal("mid-window state must not have evaluated yet")
	}
	if changed := e.Finish(); !changed || !e.Escalated() {
		t.Fatal("Finish did not evaluate the partial window")
	}
}

func TestRulesEnabled(t *testing.T) {
	if (Rules{}).Enabled() {
		t.Fatal("zero rules must be disabled")
	}
	if !(Rules{P99Above: units.Second}).Enabled() {
		t.Fatal("P99Above must enable")
	}
	var nilE *Escalator
	if nilE.Escalated() || nilE.Escalations() != 0 {
		t.Fatal("nil escalator must no-op")
	}
	nilE.Observe(0, 1)
	nilE.Finish()
}

// TestEscalatorDemotesExactlyAtNthCleanBoundary pins the demotion edge:
// with three clean windows, an escalated flow demotes on the roll of the third
// consecutive clean window — at exactly the boundary time 4·Width, not
// one tick before, and not a window later.
func TestEscalatorDemotesExactlyAtNthCleanBoundary(t *testing.T) {
	e := NewEscalator(Rules{P99Above: 10 * units.Millisecond}, units.Second)

	// Window 0 trips; the transition lands when window 0 rolls.
	for i := 0; i < minSamples; i++ {
		e.Observe(units.Time(units.Duration(500+100*i)*units.Millisecond), 0.5)
	}
	changed, esc := e.Observe(units.Time(1500*units.Millisecond), 0.001)
	if !changed || !esc {
		t.Fatalf("window-0 roll: changed=%v escalated=%v, want true/true", changed, esc)
	}

	// Clean windows 1 and 2 roll (each carried evidence): still escalated.
	for _, at := range []units.Time{
		units.Time(2500 * units.Millisecond),
		units.Time(3500 * units.Millisecond),
	} {
		if changed, esc = e.Observe(at, 0.001); changed || !esc {
			t.Fatalf("roll at %v: changed=%v escalated=%v, want false/true", at, changed, esc)
		}
	}

	// One tick shy of window 3's boundary nothing may happen…
	if e.AdvanceTo(units.Time(4*units.Second) - 1) {
		t.Fatal("state changed before the third clean window's boundary")
	}
	if !e.Escalated() {
		t.Fatal("demoted early")
	}
	// …and at exactly 4·Width the third clean window rolls and demotes.
	if !e.AdvanceTo(units.Time(4 * units.Second)) {
		t.Fatal("no transition at the third clean window's boundary")
	}
	if e.Escalated() || e.Demotions() != 1 || e.Escalations() != 1 {
		t.Fatalf("after boundary: escalated=%v demotions=%d escalations=%d",
			e.Escalated(), e.Demotions(), e.Escalations())
	}
}
