package sim

import (
	"strings"
	"testing"

	"element/internal/units"
)

// TestLaneRejectsEarlierTime: a lane is FIFO, so a time before its last
// entry cannot be honoured and is refused loudly; a time in the past on an
// idle lane is clamped to now, as AtCall clamps.
func TestLaneRejectsEarlierTime(t *testing.T) {
	e := New(1)
	var fired []units.Time
	l := e.NewLane(func(any) { fired = append(fired, e.Now()) })
	l.At(10, nil)
	l.At(10, nil) // equal is fine
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Lane.At before the lane's last entry did not panic")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "before the lane's last entry") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		l.At(9, nil)
	}()
	checkHeap(t, e, l) // the refused entry left nothing behind
	e.RunUntil(50)
	l.At(20, nil) // idle lane, past time: runs now
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 50 {
		t.Fatalf("fired at %v, want [10 10 50]", fired)
	}
}

// TestLaneHandlerMayAppend: the handler of a lane's head adds to the same
// lane while a later entry is already waiting. The waiting entry's key must
// be in the heap, under the seq it reserved, before the handler runs — the
// order below is what four AtCalls would give.
func TestLaneHandlerMayAppend(t *testing.T) {
	e := New(1)
	var order []string
	var l *Lane
	l = e.NewLane(func(arg any) {
		name := arg.(string)
		order = append(order, name)
		checkHeap(t, e, l)
		if name == "a" {
			// b is waiting at 5; c joins it there, and a plain event at
			// 5 scheduled between them must fire between them.
			if e.Pending() != 1 {
				t.Errorf("inside a's handler Pending = %d, want 1 (b)", e.Pending())
			}
			e.At(5, func() { order = append(order, "plain") })
			l.At(5, "c")
			checkHeap(t, e, l)
		}
	})
	l.At(3, "a")
	l.At(5, "b")
	e.Run()
	if got := strings.Join(order, " "); got != "a b plain c" {
		t.Fatalf("fired %q, want %q", got, "a b plain c")
	}
}

// TestLaneReservesSeqAtAdd: a lane entry added before a plain event for the
// same instant fires before it even though its key reaches the heap later
// (it was waiting behind the lane's head when the plain event was queued).
func TestLaneReservesSeqAtAdd(t *testing.T) {
	e := New(1)
	var order []string
	l := e.NewLane(func(arg any) { order = append(order, arg.(string)) })
	l.At(1, "head")
	l.At(7, "lane@7")
	e.At(7, func() { order = append(order, "plain@7") })
	e.Run()
	if got := strings.Join(order, " "); got != "head lane@7 plain@7" {
		t.Fatalf("fired %q, want %q", got, "head lane@7 plain@7")
	}
}

// TestLaneRingWrapsAndGrows: the ring grows while its contents wrap around
// the end of the backing array; nothing is lost or reordered.
func TestLaneRingWrapsAndGrows(t *testing.T) {
	e := New(1)
	var got []int
	l := e.NewLane(func(arg any) { got = append(got, arg.(int)) })
	next, at := 0, units.Time(0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			at++
			l.At(at, next)
			next++
		}
	}
	add(6)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	add(40) // head is at index 5 of 8: wraps, then grows twice
	checkHeap(t, e, l)
	e.Run()
	if len(got) != next {
		t.Fatalf("%d entries fired, want %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d fired in position %d", v, i)
		}
	}
}
