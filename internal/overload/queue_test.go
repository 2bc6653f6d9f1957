package overload

import (
	"errors"
	"testing"

	"element/internal/telemetry/stream"
	"element/internal/units"
)

// scriptSink is a stream.Sink whose failure behavior is driven by a
// flag; it records the window indexes it accepted.
type scriptSink struct {
	fail     bool
	accepted []int64
	attempts int
}

func (s *scriptSink) ExportWindow(names []string, w *stream.Window) error {
	s.attempts++
	if s.fail {
		return errors.New("sink wedged")
	}
	s.accepted = append(s.accepted, w.Index)
	return nil
}

func win(i int64) *stream.Window {
	return &stream.Window{Index: i, Samples: uint64(i) + 1, Sketches: make([]stream.Sketch, 2)}
}

// invariant checks the queue's full-accounting contract.
func invariant(t *testing.T, q *Queue) {
	t.Helper()
	st := q.Stats()
	if st.Enqueued != st.Delivered+st.Dropped+st.Deadlined+q.Depth() {
		t.Fatalf("accounting broken: %+v with depth %d", st, q.Depth())
	}
}

func TestQueueDeliversInOrder(t *testing.T) {
	sink := &scriptSink{}
	q := NewQueue(QueueConfig{Capacity: 8}, sink)
	names := []string{"a", "b"}
	for i := int64(0); i < 5; i++ {
		if err := q.ExportWindow(names, win(i)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if q.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", q.Depth())
	}
	q.Advance(units.Time(units.Second))
	if len(sink.accepted) != 5 {
		t.Fatalf("delivered %d windows, want 5", len(sink.accepted))
	}
	for i, idx := range sink.accepted {
		if idx != int64(i) {
			t.Fatalf("delivery order %v, want 0..4", sink.accepted)
		}
	}
	if st := q.Stats(); st.HighWater != 5 || st.Delivered != 5 {
		t.Fatalf("stats = %+v", st)
	}
	invariant(t, q)
}

func TestQueueDeepCopiesWindows(t *testing.T) {
	sink := &scriptSink{}
	q := NewQueue(QueueConfig{Capacity: 4}, sink)
	w := win(7)
	w.Sketches[0].Observe(1.5)
	q.ExportWindow([]string{"a", "b"}, w)
	// The streaming layer recycles sealed slots: mutate the source after
	// enqueue and make sure the queued copy is unaffected.
	w.Index = 999
	w.Sketches[0].Observe(100)
	var got stream.Window
	probe := stream.SinkFunc(func(_ []string, pw *stream.Window) error {
		got = *pw
		got.Sketches = append([]stream.Sketch(nil), pw.Sketches...)
		return nil
	})
	q2 := *q
	q2.sink = probe
	q2.Advance(0)
	if got.Index != 7 {
		t.Fatalf("queued window index = %d, want the pre-mutation 7", got.Index)
	}
	if n := got.Sketches[0].Count(); n != 1 {
		t.Fatalf("queued sketch count = %d, want the pre-mutation 1", n)
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	sink := &scriptSink{}
	q := NewQueue(QueueConfig{Capacity: 3}, sink)
	for i := int64(0); i < 5; i++ {
		q.ExportWindow(nil, win(i))
	}
	if st := q.Stats(); st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", st.Dropped)
	}
	q.Advance(units.Time(units.Second))
	wantOrder := []int64{2, 3, 4}
	if len(sink.accepted) != 3 {
		t.Fatalf("delivered %v, want %v", sink.accepted, wantOrder)
	}
	for i, idx := range sink.accepted {
		if idx != wantOrder[i] {
			t.Fatalf("delivered %v, want %v (oldest dropped first)", sink.accepted, wantOrder)
		}
	}
	invariant(t, q)
}

func TestQueueRetryBackoffBreakerAndRecovery(t *testing.T) {
	sink := &scriptSink{fail: true}
	q := NewQueue(QueueConfig{Capacity: 16, Seed: 9}, sink)
	for i := int64(0); i < 6; i++ {
		q.ExportWindow(nil, win(i))
	}
	// Walk time forward in 1 ms steps: the failing sink should be probed
	// on a backoff schedule, not hammered every step. Backoffs of 50, 100,
	// 200 and 400 ms (±20 %) put the fifth failure, which trips the
	// breaker, before 1 s.
	now := units.Time(0)
	for i := 0; i < 1000; i++ {
		now = now.Add(units.Millisecond)
		q.Advance(now)
	}
	st := q.Stats()
	if st.BreakerTrips != 1 || !q.BreakerOpen() {
		t.Fatalf("breaker did not trip once: %+v", st)
	}
	if sink.attempts != breakerFailures {
		t.Fatalf("sink attempted %d times in 1 s, want the %d backoff probes", sink.attempts, breakerFailures)
	}
	if st.Delivered != 0 || q.Depth() != 6 {
		t.Fatalf("windows leaked through a dead sink: %+v depth %d", st, q.Depth())
	}
	if !q.BreakerOpen() && st.Retries == 0 {
		t.Fatalf("no retry evidence: %+v", st)
	}
	invariant(t, q)

	// Sink recovers. After the cooloff the half-open probe succeeds and
	// the whole backlog drains, well inside the deadline — no window lost
	// to the outage.
	sink.fail = false
	for i := 0; i < 1200; i++ {
		now = now.Add(units.Millisecond)
		q.Advance(now)
	}
	st = q.Stats()
	if st.Delivered != 6 || q.Depth() != 0 {
		t.Fatalf("backlog not drained after recovery: %+v depth %d", st, q.Depth())
	}
	if len(sink.accepted) != 6 || sink.accepted[0] != 0 {
		t.Fatalf("recovery delivery out of order: %v", sink.accepted)
	}
	invariant(t, q)
}

func TestQueueDeadlineDropsStale(t *testing.T) {
	sink := &scriptSink{fail: true}
	q := NewQueue(QueueConfig{Capacity: 8}, sink)
	q.Advance(0)
	q.ExportWindow(nil, win(1))
	q.Advance(units.Time(2500 * units.Millisecond))
	q.ExportWindow(nil, win(2))
	q.Advance(units.Time(queueDeadline + 200*units.Millisecond))
	st := q.Stats()
	if st.Deadlined != 1 {
		t.Fatalf("Deadlined = %d, want 1 (only the first window expired)", st.Deadlined)
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", q.Depth())
	}
	invariant(t, q)
}

func TestQueueFlushReportsTruncation(t *testing.T) {
	sink := &scriptSink{fail: true}
	q := NewQueue(QueueConfig{Capacity: 8}, sink)
	for i := int64(0); i < 4; i++ {
		q.ExportWindow(nil, win(i))
	}
	if rem := q.Flush(0); rem != 4 {
		t.Fatalf("Flush against dead sink left %d, want 4", rem)
	}
	sink.fail = false
	if rem := q.Flush(0); rem != 0 {
		t.Fatalf("Flush after recovery left %d, want 0", rem)
	}
	if st := q.Stats(); st.Delivered != 4 {
		t.Fatalf("stats = %+v", st)
	}
	invariant(t, q)
}

func TestQueueDeterministicBackoffSchedule(t *testing.T) {
	run := func() (attempts []int) {
		sink := &scriptSink{fail: true}
		q := NewQueue(QueueConfig{Capacity: 4, Seed: 77}, sink)
		q.ExportWindow(nil, win(0))
		now := units.Time(0)
		prev := 0
		for i := 0; i < 4000; i++ {
			now = now.Add(units.Millisecond)
			q.Advance(now)
			if sink.attempts != prev {
				prev = sink.attempts
				attempts = append(attempts, i)
			}
		}
		return attempts
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no attempts recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d at tick %d vs %d", i, a[i], b[i])
		}
	}
}
