package sim

import (
	"fmt"

	"element/internal/units"
)

// Lane is a stream of events with one handler and non-decreasing
// timestamps — packets in flight on a link. Its entries wait in a ring and
// only the earliest has a key in the engine's heap, so the heap's size does
// not grow with what is merely in flight.
//
// Each entry takes its seq from the engine's counter when it is added, not
// when it reaches the head, so the global (at, seq) firing order is exactly
// what one AtCall per entry would have produced: an entry that ties with a
// plain event on the same nanosecond still sorts by which was scheduled
// first.
type Lane struct {
	eng  *Engine
	fn   func(any)
	ring []laneEntry // power-of-two capacity; nil until the first At
	head int         // index of the earliest entry, whose key is in the heap
	n    int
	last units.Time // timestamp of the latest entry added
}

type laneEntry struct {
	at  units.Time
	seq uint64
	arg any
}

// NewLane returns a lane whose entries fire fn(arg).
func (e *Engine) NewLane(fn func(any)) *Lane {
	return &Lane{eng: e, fn: fn}
}

// At arranges for fn(arg) to run at absolute virtual time t. Times in the
// past are clamped to now, as in AtCall; a t before the lane's previous
// entry is a caller bug and panics.
func (l *Lane) At(t units.Time, arg any) {
	e := l.eng
	if t < e.now {
		t = e.now
	}
	if t < l.last {
		panic(fmt.Sprintf("sim: Lane.At(%v) before the lane's last entry at %v", t, l.last))
	}
	l.last = t
	if l.n == len(l.ring) {
		l.grow()
	}
	e.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEntry{at: t, seq: e.seq, arg: arg}
	l.n++
	if l.n == 1 {
		e.enqueue(t, e.seq, fireLane, l)
	} else {
		e.waiting++
	}
}

// grow doubles the ring, unwrapping it so the head is at index 0.
func (l *Lane) grow() {
	ring := make([]laneEntry, max(8, 2*len(l.ring)))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// fireLane is the heap event of a lane's head entry. The next entry's key
// is queued, under the (at, seq) it reserved, before the handler runs: the
// handler may add to this lane, and must find it in a consistent state.
func fireLane(lane any) {
	l := lane.(*Lane)
	head := &l.ring[l.head]
	arg := head.arg
	head.arg = nil // the ring must not pin what it has delivered
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.eng.waiting--
		l.eng.enqueue(next.at, next.seq, fireLane, l)
	}
	l.fn(arg)
}
