package overload

import (
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// Queue is the backpressured export path: a bounded ring of sealed
// windows in front of a stream.Sink, so a stalled or flapping sink
// degrades into queueing, retry and audited drops instead of blocking
// the barrier loop or silently losing windows. It implements
// stream.Sink itself — the fleet splices it between the streaming
// pipeline and the real exporter.
//
// Failure handling is a small deterministic state machine: delivery
// failures back off exponentially (capped, seed-jittered so retries from
// many fleets don't synchronize), a run of consecutive failures trips a
// circuit breaker that stops hammering a wedged sink until a cooloff
// passes, and entries older than the deadline are dropped — counted,
// never silent. The accounting invariant the tests pin:
//
//	Enqueued == Delivered + Dropped + Deadlined + Depth()
//
// Queue is not goroutine-safe; the fleet drives it from the barrier
// loop, which also keeps its behavior shard-count-invariant.
type Queue struct {
	cfg  QueueConfig
	sink stream.Sink

	ring  []entry
	head  int // oldest entry
	depth int
	now   units.Time

	// Retry/backoff + breaker state.
	backoff     units.Duration
	nextAttempt units.Time
	consecFails int
	open        bool // breaker open: no attempts until reopenAt
	reopenAt    units.Time
	rngCtr      uint64

	stats QueueStats
}

// entry is one queued sealed window, deep-copied at enqueue because the
// streaming layer recycles its sealed slots after release.
type entry struct {
	names []string
	win   stream.Window
	at    units.Time // enqueue time, for the deadline
}

// The export queue's failure-handling constants.
const (
	// queueDeadline drops entries that have waited longer: a window stuck
	// behind a dead sink eventually stops being worth delivering, but its
	// loss is always counted.
	queueDeadline = 5 * units.Second
	// retryBase is the first retry delay after a failure.
	retryBase = 50 * units.Millisecond
	// retryMax caps the exponential backoff.
	retryMax = 2 * units.Second
	// breakerFailures is the consecutive-failure run that trips the
	// circuit breaker.
	breakerFailures = 5
	// breakerCooloff is how long a tripped breaker blocks attempts before
	// the half-open probe.
	breakerCooloff = 1 * units.Second
)

// QueueConfig parameterizes the export queue.
type QueueConfig struct {
	// Capacity bounds the queue depth; on overflow the oldest window is
	// dropped and counted (0 = 64).
	Capacity int
	// Seed derives the retry jitter.
	Seed int64
}

// QueueStats is the queue's audit trail. Every window that entered is
// accounted for: delivered, dropped on overflow, deadlined, or still
// queued.
type QueueStats struct {
	// Enqueued counts windows accepted by ExportWindow.
	Enqueued int
	// Delivered counts windows the sink accepted.
	Delivered int
	// Retries counts failed delivery attempts (each schedules a backoff).
	Retries int
	// Dropped counts oldest-window overflow drops.
	Dropped int
	// Deadlined counts windows dropped for exceeding the queue deadline.
	Deadlined int
	// BreakerTrips counts circuit-breaker opens.
	BreakerTrips int
	// HighWater is the maximum queue depth ever observed.
	HighWater int
}

// NewQueue builds a queue of cfg.Capacity entries in front of sink. All
// ring storage is allocated up front; the steady-state enqueue/deliver
// path is allocation-free once each slot's sketch slice has grown to the
// series count.
func NewQueue(cfg QueueConfig, sink stream.Sink) *Queue {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	return &Queue{cfg: cfg, sink: sink, ring: make([]entry, cfg.Capacity)}
}

// ExportWindow enqueues a deep copy of w. It never returns an error —
// overflow drops the oldest queued window (counted in Dropped) rather
// than rejecting the new one or propagating a sticky failure into the
// streaming pipeline; the sink's own errors surface through the
// retry/breaker machinery in Advance.
func (q *Queue) ExportWindow(names []string, w *stream.Window) error {
	if q.depth == len(q.ring) {
		q.head = (q.head + 1) % len(q.ring)
		q.depth--
		q.stats.Dropped++
	}
	slot := &q.ring[(q.head+q.depth)%len(q.ring)]
	slot.names = names
	// Sketches is the only reference field; Sketch is a value struct, so
	// an element-wise copy into the slot's reusable slice is a deep copy.
	sk := slot.win.Sketches[:0]
	slot.win = *w
	slot.win.Sketches = append(sk, w.Sketches...)
	slot.at = q.now
	q.depth++
	q.stats.Enqueued++
	if q.depth > q.stats.HighWater {
		q.stats.HighWater = q.depth
	}
	return nil
}

// Advance moves the queue's clock to now and attempts delivery: expired
// entries are deadlined, then — breaker and backoff permitting — queued
// windows are delivered oldest-first until the sink fails. A failure
// schedules the next capped, jittered backoff; a consecutive-failure
// run trips the breaker, and the first attempt after its cooloff is the
// half-open probe (success closes the breaker, failure re-trips it).
func (q *Queue) Advance(now units.Time) {
	q.now = now
	for q.depth > 0 && now.Sub(q.ring[q.head].at) > queueDeadline {
		q.pop()
		q.stats.Deadlined++
	}
	if q.open {
		if now < q.reopenAt {
			return
		}
		q.open = false // half-open: the next attempt is the probe
	}
	if now < q.nextAttempt {
		return
	}
	for q.depth > 0 {
		e := &q.ring[q.head]
		if err := q.sink.ExportWindow(e.names, &e.win); err != nil {
			q.fail(now)
			return
		}
		q.pop()
		q.stats.Delivered++
		q.consecFails = 0
		q.backoff = 0
	}
}

// fail records one delivery failure: count the retry, grow the backoff,
// and trip the breaker on a consecutive run.
func (q *Queue) fail(now units.Time) {
	q.stats.Retries++
	q.consecFails++
	if q.backoff == 0 {
		q.backoff = retryBase
	} else {
		q.backoff *= 2
		if q.backoff > retryMax {
			q.backoff = retryMax
		}
	}
	q.nextAttempt = now.Add(q.jittered(q.backoff))
	if q.consecFails >= breakerFailures {
		q.open = true
		q.reopenAt = now.Add(breakerCooloff)
		q.stats.BreakerTrips++
		q.consecFails = 0
	}
}

// retryJitter is the ± fraction applied to each retry backoff.
const retryJitter = 0.2

// jittered spreads d by ±retryJitter using the queue's seeded counter
// stream: deterministic per run, decorrelated across fleets.
func (q *Queue) jittered(d units.Duration) units.Duration {
	q.rngCtr++
	r := splitmix64(uint64(q.cfg.Seed) + q.rngCtr*0x6a697474)
	frac := float64(r>>11) / (1 << 53) // [0, 1)
	j := 1 + retryJitter*(2*frac-1)
	out := units.Duration(float64(d) * j)
	if out < 1 {
		out = 1
	}
	return out
}

// Flush is the drain path: deliver oldest-first, ignoring backoff and
// breaker state — the run is ending and this is the last chance — until
// the queue empties or the sink fails (windows are ordered, so a failed
// head blocks the rest). The return value is the number of windows left
// undelivered, which the fleet surfaces as the export-truncated marker.
func (q *Queue) Flush(now units.Time) (remaining int) {
	q.now = now
	n := q.depth
	for i := 0; i < n && q.depth > 0; i++ {
		e := &q.ring[q.head]
		if err := q.sink.ExportWindow(e.names, &e.win); err != nil {
			q.stats.Retries++
			break
		}
		q.pop()
		q.stats.Delivered++
	}
	return q.depth
}

// pop releases the oldest entry, keeping its allocated sketch slice for
// reuse by a future enqueue into the same slot.
func (q *Queue) pop() {
	q.head = (q.head + 1) % len(q.ring)
	q.depth--
}

// Depth reports the current queue depth.
func (q *Queue) Depth() int { return q.depth }

// Frac reports the fill fraction in [0, 1] — the governor's QueueFrac
// pressure input.
func (q *Queue) Frac() float64 { return float64(q.depth) / float64(len(q.ring)) }

// BreakerOpen reports whether the circuit breaker is currently open.
func (q *Queue) BreakerOpen() bool { return q.open }

// Stats reports the queue's audit counters.
func (q *Queue) Stats() QueueStats { return q.stats }
