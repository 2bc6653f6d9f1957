package stream

import "element/internal/units"

// Rules is the sketch-driven escalation policy (Dapper-style two-phase
// monitoring): a flow whose per-window p99 sender delay trips the rule
// escalates from lightweight sketch-only observation to full tracker +
// waterfall granularity, and demotes after cleanWindows consecutive
// clean windows.
type Rules struct {
	// P99Above escalates when a window's p99 sender delay exceeds it
	// (0 = no escalation).
	P99Above units.Duration
}

const (
	// minSamples guards the rule: windows with fewer samples never trip.
	minSamples = 4
	// cleanWindows is how many consecutive clean windows demote an
	// escalated flow back to lightweight mode.
	cleanWindows = 3
)

// Enabled reports whether the rule has a live threshold.
func (r Rules) Enabled() bool { return r.P99Above > 0 }

// Escalator is one flow's escalation state machine. It keeps a single
// window's worth of sketch state (a few KB), evaluates the rule each
// time virtual time crosses a window boundary, and tracks the
// escalated/lightweight state plus transition counters. Decisions are a
// pure function of the flow's own sample sequence, so they are
// independent of how flows are packed onto shards.
type Escalator struct {
	rules Rules
	width units.Duration

	idx    int64 // current window ordinal
	sketch Sketch

	escalated bool
	clean     int // consecutive clean windows while escalated

	escalations uint64
	demotions   uint64
}

// NewEscalator returns a flow escalator evaluating rules over tumbling
// windows of the given width (default DefaultWidth).
func NewEscalator(rules Rules, width units.Duration) *Escalator {
	if width <= 0 {
		width = DefaultWidth
	}
	return &Escalator{rules: rules, width: width}
}

// Escalated reports whether the flow is currently escalated.
func (e *Escalator) Escalated() bool { return e != nil && e.escalated }

// Escalations reports lightweight→full transitions so far.
func (e *Escalator) Escalations() uint64 {
	if e == nil {
		return 0
	}
	return e.escalations
}

// Demotions reports full→lightweight transitions so far.
func (e *Escalator) Demotions() uint64 {
	if e == nil {
		return 0
	}
	return e.demotions
}

// ForceDemote drops an escalated flow back to lightweight observation
// immediately, outside the clean-window machinery — the overload
// governor calls it when budget pressure sheds a flow below full
// coverage, where retaining escalated raw series is no longer allowed.
// The escalator keeps evaluating windows afterwards; under sustained
// pressure the governor simply sheds it again. Returns whether the state
// changed.
func (e *Escalator) ForceDemote() (changed bool) {
	if e == nil || !e.escalated {
		return false
	}
	e.escalated = false
	e.demotions++
	e.clean = 0
	return true
}

// Observe records one sender-delay sample (seconds) at virtual time at,
// rolling and evaluating any windows the sample's time has passed.
// changed reports a state transition this call; escalated the state
// after it. Samples must arrive in non-decreasing time order (monitor
// polls are monotonic per flow). Allocation-free.
func (e *Escalator) Observe(at units.Time, delay float64) (changed, escalated bool) {
	if e == nil {
		return false, false
	}
	changed = e.advance(at)
	e.sketch.Observe(delay)
	return changed, e.escalated
}

// AdvanceTo rolls and evaluates every window boundary passed by virtual
// time at without recording a sample — for callers whose clock moves
// even when the flow is quiet.
func (e *Escalator) AdvanceTo(at units.Time) (changed bool) {
	if e == nil {
		return false
	}
	return e.advance(at)
}

// Finish evaluates the in-progress window at drain time so a run that
// ends mid-window still counts its last evidence. Returns whether the
// state changed.
func (e *Escalator) Finish() (changed bool) {
	if e == nil {
		return false
	}
	if e.sketch.Count() > 0 {
		changed = e.roll()
	}
	return changed
}

// advance rolls every window boundary passed by time at.
func (e *Escalator) advance(at units.Time) (changed bool) {
	idx := int64(at) / int64(e.width)
	if at < 0 {
		idx = 0
	}
	for e.idx < idx {
		if e.roll() {
			changed = true
		}
		e.idx++
	}
	return changed
}

// roll evaluates the completed window against the rule and resets the
// window state. One transition at most per window.
func (e *Escalator) roll() (changed bool) {
	n := e.sketch.Count()
	trip := n >= minSamples && e.rules.P99Above > 0 &&
		e.sketch.Quantile(0.99) > e.rules.P99Above.Seconds()
	switch {
	case trip && !e.escalated:
		e.escalated = true
		e.escalations++
		e.clean = 0
		changed = true
	case trip:
		e.clean = 0
	case e.escalated:
		// Clean window (or too few samples to judge): count toward
		// demotion only when the flow actually produced evidence.
		if n > 0 {
			e.clean++
			if e.clean >= cleanWindows {
				e.escalated = false
				e.demotions++
				e.clean = 0
				changed = true
			}
		}
	}
	e.sketch.Reset()
	return changed
}
