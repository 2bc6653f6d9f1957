// Package sim implements the deterministic discrete-event simulation engine
// that underpins the whole repository.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. On top of the raw event loop it offers a coroutine-style process
// abstraction (Proc) so that application code — traffic generators, the
// ELEMENT trackers, the VR streamer — can be written in ordinary blocking
// style (Write, Read, Sleep) while still running in virtual time. Exactly one
// goroutine executes at any instant, so simulations are fully deterministic
// and race-free by construction.
package sim

import (
	"fmt"
	"math/rand"

	"element/internal/units"
)

// The event queue is a 4-ary min-heap of small value keys over a slab of
// callback records. A key is what ordering needs — (at, seq) — plus the
// slab slot holding what firing needs. Slots are recycled through a free
// list, so once the slab has grown to the peak number of queued events,
// scheduling and firing allocate nothing.
//
// (at, seq) is a strict total order: seq is unique, so pop order is the
// FIFO-among-ties order whatever the heap's shape.
//
// The heap is indexed: every record knows where its key sits, so Stop takes
// the key out on the spot and the heap holds exactly the events that will
// fire. TCP stops and re-arms a 200 ms timer on every ACK; keys kept until
// their deadline would outnumber the live ones eight to one.

// eventKey is one heap element.
type eventKey struct {
	at   units.Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot int32
}

func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventRec is one slab record: queued (its key is at heap[pos]) or free
// (fn is nil and next links the free list).
type eventRec struct {
	fn   func(any)
	arg  any
	gen  uint32 // bumped on fire and on Stop; a Timer is live while it matches
	pos  int32  // index of the record's key in the heap, while queued
	next int32
}

// Timer is a handle to a scheduled event; it allows cancellation. It is a
// small value: copy it freely. The zero Timer is inert.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Active reports whether the event is still scheduled: not yet fired and
// not stopped. It is already false inside the event's own callback.
func (t Timer) Active() bool {
	return t.eng != nil && t.eng.slab[t.slot].gen == t.gen
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer, and reports whether the call prevented the event
// from firing.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	// The slot is reused by the very next event; the generation bump in
	// release is what keeps every copy of this handle from acting on it.
	e := t.eng
	e.remove(int(e.slab[t.slot].pos))
	e.release(t.slot)
	return true
}

// Engine is a discrete-event simulator instance. It is not safe for
// concurrent use; all interaction must happen from the goroutine that calls
// Run (which includes all Proc coroutines, since only one runs at a time).
type Engine struct {
	now  units.Time
	seq  uint64
	heap []eventKey
	slab []eventRec
	free int32 // head of the slab's free list, -1 when empty
	// waiting counts lane entries queued behind their lane's head: they
	// will fire, but have no key in the heap yet.
	waiting int
	rng     *rand.Rand

	procs map[*Proc]struct{}

	stopped bool
}

// New returns an engine whose random source is seeded with seed, making
// every run reproducible.
func New(seed int64) *Engine {
	return &Engine{
		free:  -1,
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() units.Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule arranges for fn to run after delay d. Negative delays are treated
// as zero (run "immediately", after currently queued same-time events).
func (e *Engine) Schedule(d units.Duration, fn func()) Timer {
	return e.ScheduleCall(d, callFunc, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to now.
func (e *Engine) At(t units.Time, fn func()) Timer {
	return e.AtCall(t, callFunc, fn)
}

// callFunc adapts a plain func() to the queue's one representation; a func
// value is pointer-shaped, so boxing it in arg does not allocate.
func callFunc(arg any) { arg.(func())() }

// ScheduleCall is Schedule for hot paths: fn(arg) runs after delay d. With
// fn a package-level function (or a method value bound once) and arg a
// pointer, scheduling needs no per-event closure.
func (e *Engine) ScheduleCall(d units.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now.Add(d), fn, arg)
}

// AtCall is At for hot paths; see ScheduleCall.
func (e *Engine) AtCall(t units.Time, fn func(any), arg any) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	slot := e.enqueue(t, e.seq, fn, arg)
	return Timer{eng: e, slot: slot, gen: e.slab[slot].gen}
}

// enqueue takes a slot for fn(arg) and queues its key under (at, seq).
func (e *Engine) enqueue(at units.Time, seq uint64, fn func(any), arg any) int32 {
	slot := e.free
	if slot >= 0 {
		e.free = e.slab[slot].next
	} else {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, eventRec{})
	}
	r := &e.slab[slot]
	r.fn, r.arg = fn, arg
	e.heap = append(e.heap, eventKey{})
	e.siftUp(len(e.heap)-1, eventKey{at: at, seq: seq, slot: slot})
	return slot
}

// release returns a fired or stopped event's slot to the free list. The
// record is cleared so it does not pin its callback or argument.
func (e *Engine) release(slot int32) {
	r := &e.slab[slot]
	r.fn, r.arg = nil, nil
	r.gen++
	r.next = e.free
	e.free = slot
}

// siftUp places k at the hole i or above it.
func (e *Engine) siftUp(i int, k eventKey) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slab[h[i].slot].pos = int32(i)
		i = parent
	}
	h[i] = k
	e.slab[k.slot].pos = int32(i)
}

// siftDown places k at the hole i or below it.
func (e *Engine) siftDown(i int, k eventKey) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		e.slab[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = k
	e.slab[k.slot].pos = int32(i)
}

// remove takes the key at heap index i out: the last key moves into the
// hole and sifts whichever way restores order. Taken from the middle it may
// have to rise — it came from another subtree, so it can sort before the
// hole's parent.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(e.heap[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	k := e.heap[0]
	e.remove(0)
	r := &e.slab[k.slot]
	fn, arg := r.fn, r.arg
	e.release(k.slot)
	e.now = k.at
	fn(arg)
	return true
}

// Run executes events until the queue is empty or Stop is called. Parked
// processes that are never woken again do not keep Run alive.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// If Stop ends it early the clock stays at the last event executed, since
// events before t are still queued.
func (e *Engine) RunUntil(t units.Time) {
	e.stopped = false
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
		if e.stopped {
			return
		}
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for duration d of virtual time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop makes the Run/RunUntil in progress return after the current event
// completes; the next Run/RunUntil starts afresh. It is typically called
// from within an event or process.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown terminates all parked processes so their goroutines exit. It must
// be called after Run/RunUntil have returned, from the driving goroutine.
// Experiments call this once measurements are collected.
func (e *Engine) Shutdown() {
	for p := range e.procs {
		p.killed = p.state == procParked
		p.run()
		delete(e.procs, p)
	}
}

// Pending reports the number of events that will fire: every key in the
// heap plus the lane entries waiting behind them.
func (e *Engine) Pending() int { return len(e.heap) + e.waiting }

func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v, pending=%d}", e.now, e.Pending())
}
