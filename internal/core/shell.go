package core

import (
	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/units"
)

// This file is the shell the three algorithms run in, written once: the
// polling loop all three embed, and the tracker shell both trackers
// embed around it — the sanitized TCP_INFO source, the record ring, the
// measurement log and the per-sample telemetry. What a side adds is its
// own logic: poll, the restore rule fold, and the state they carry.

// loop is an estimator's polling thread: a timer on eng that runs one
// pass of its owner every interval until Stop.
type loop struct {
	eng      *sim.Engine
	interval units.Duration
	owner    estimator
	ticker   sim.Timer
	stopped  bool
}

// estimator is a loop's owner; poll is one pass of its algorithm.
type estimator interface{ poll() }

// start arms the loop's next tick.
func (l *loop) start() { l.ticker = l.eng.ScheduleCall(l.interval, tickLoop, l) }

// tickLoop is every loop's timer handler, with the loop as the event
// argument, so a tick allocates nothing.
func tickLoop(arg any) {
	l := arg.(*loop)
	if l.stopped {
		return
	}
	l.owner.poll()
	l.start()
}

// Stop halts the polling thread.
func (l *loop) Stop() {
	l.stopped = true
	l.ticker.Stop()
}

// tracker is the shell SenderTracker and ReceiverTracker embed; the
// loop's owner is the side, which also supplies the restore rule.
type tracker struct {
	loop
	san  *sanitizer
	list fifo // (cumulative bytes, time) records, the paper's linked list
	est  Estimates

	// Telemetry handles (nil when uninstrumented).
	matchH   *telemetry.Histogram
	pollsC   *telemetry.Counter
	matchesC *telemetry.Counter
	lowC     *telemetry.Counter
	delayS   *telemetry.Sampler
}

// side is a tracker's owner: its poll and its restore rule (grading.fold
// plus whatever the side adds).
type side interface {
	estimator
	fold(d units.Duration)
}

// TrackerOptions configures tracker construction beyond the polling
// interval.
type TrackerOptions struct {
	// Interval is the TCP_INFO polling period (0 = 10 ms).
	Interval units.Duration
	// RecordCap bounds the write/receive record FIFO: 0 selects
	// DefaultRecordCap, negative disables the cap entirely. Evictions past
	// the cap are counted in AnomalyCounts.Evictions and degrade the
	// confidence of subsequent samples.
	RecordCap int
	// Detached suppresses the tracker's self-scheduled polling timer; the
	// caller drives every poll through PollOnce. The fleet supervisor uses
	// this so each poll runs under its panic-recovery wrapper.
	Detached bool
}

// init binds the shell to owner, its side, on eng and starts the loop
// unless opts detach it.
func (t *tracker) init(eng *sim.Engine, src InfoSource, opts TrackerOptions, owner side) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	switch {
	case opts.RecordCap == 0:
		t.list.cap = DefaultRecordCap
	case opts.RecordCap > 0:
		t.list.cap = opts.RecordCap
	}
	t.loop = loop{eng: eng, interval: opts.Interval, owner: owner}
	t.san = newSanitizer(src)
	if !opts.Detached {
		t.start()
	}
}

// instrument registers the side's per-sample metrics under sc, each named
// after prefix, and the sanitizer's anomaly counters.
func (t *tracker) instrument(sc *telemetry.Scope, prefix string) {
	if sc == nil {
		return
	}
	t.matchH = sc.Histogram(prefix + "_match_delay_seconds")
	t.pollsC = sc.Counter(prefix + "_polls")
	t.matchesC = sc.Counter(prefix + "_matches")
	t.lowC = sc.Counter(prefix + "_low_confidence_samples")
	t.delayS = sc.Sampler(prefix+"_buffer_delay", telemetry.DefaultSampleGap, "seconds")
	t.san.instrument(sc)
}

// emit appends one sample to the log and records it in the telemetry.
func (t *tracker) emit(m Measurement) {
	t.est.add(m)
	if t.matchH != nil {
		t.matchesC.Inc()
		t.matchH.Observe(m.Delay.Seconds())
		t.delayS.SampleValsAt(m.At, m.Delay.Seconds())
		if m.Confidence == ConfidenceLow {
			t.lowC.Inc()
		}
	}
}

// PollOnce runs a single tracking-thread iteration immediately. Detached
// trackers (fleet supervision, tests, micro-benchmarks) are driven
// entirely through it.
func (t *tracker) PollOnce() { t.owner.poll() }

// Estimates exposes the tracker's delay series.
func (t *tracker) Estimates() *Estimates { return &t.est }

// Pending reports the number of unmatched records.
func (t *tracker) Pending() int { return t.list.len() }

// Interval reports the tracker's polling period.
func (t *tracker) Interval() units.Duration { return t.interval }

// Anomalies reports the tracker's hostile-input audit trail.
func (t *tracker) Anomalies() AnomalyCounts { return t.san.Anomalies() }

// Shed folds a supervisor-imposed coverage gap of length guard into the
// tracker's error accounting and counts a Sheds anomaly. The overload
// governor calls it when it demotes this flow down the degradation
// ladder: records outstanding across the demotion produce samples whose
// bounds admit the guard window (stall debt, exactly like a restore
// outage), upcoming samples are downgraded while the estimator re-bases,
// and the audit trail says the coverage loss happened — degradation is
// flagged, never silent.
func (t *tracker) Shed(guard units.Duration) {
	t.san.Counts.Sheds++
	t.owner.(side).fold(guard)
}

// FoldOutage folds an unobserved window of length d into the tracker's
// error accounting without counting a new anomaly — the companion to
// Shed for the promotion half of a park/unpark cycle, whose single Shed
// was already counted at demotion. Records that sat through the window
// produce samples whose bounds admit it.
func (t *tracker) FoldOutage(d units.Duration) {
	if d > 0 {
		t.owner.(side).fold(d)
	}
}
