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

// eventKey is one heap element.
type eventKey struct {
	at   units.Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot int32
}

func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventRec is one slab record. A nil fn marks a queued record as canceled
// (its key is dropped when it reaches the top of the heap) and a free
// record as free; next links the free list.
type eventRec struct {
	fn   func(any)
	arg  any
	gen  uint32 // bumped on fire and on Stop; a Timer is live while it matches
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
	// Lazy cancel: the key stays in the heap, so the slot cannot be
	// recycled yet, but the record stops pinning its callback and argument
	// now and every copy of the handle goes stale.
	r := &t.eng.slab[t.slot]
	r.fn, r.arg = nil, nil
	r.gen++
	t.eng.live--
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
	live int   // queued events that have not been stopped
	rng  *rand.Rand

	procs map[*Proc]struct{}

	running bool
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
	slot := e.free
	if slot >= 0 {
		e.free = e.slab[slot].next
	} else {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, eventRec{})
	}
	r := &e.slab[slot]
	r.fn, r.arg = fn, arg
	e.seq++
	e.live++
	e.push(eventKey{at: t, seq: e.seq, slot: slot})
	return Timer{eng: e, slot: slot, gen: r.gen}
}

// push adds k to the heap and sifts it up.
func (e *Engine) push(k eventKey) {
	h := append(e.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	e.heap = h
}

// pop removes the minimum key, recycles its slot, and returns the key with
// the callback it held (fn is nil if the event was stopped). The record is
// cleared so a fired event does not pin its argument.
func (e *Engine) pop() (k eventKey, fn func(any), arg any) {
	h := e.heap
	k = h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	// Sift last down from the root.
	i := 0
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
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	r := &e.slab[k.slot]
	fn, arg = r.fn, r.arg
	r.fn, r.arg = nil, nil
	r.gen++
	r.next = e.free
	e.free = k.slot
	return k, fn, arg
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		k, fn, arg := e.pop()
		if fn == nil {
			continue // stopped
		}
		e.live--
		e.now = k.at
		fn(arg)
		return true
	}
	return false
}

// Run executes events until the queue is empty. Parked processes that are
// never woken again do not keep Run alive.
func (e *Engine) Run() {
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
		if e.stopped {
			return
		}
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t units.Time) {
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && !e.stopped {
		next := e.heap[0]
		if e.slab[next.slot].fn == nil {
			e.pop() // stopped
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for duration d of virtual time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop makes Run/RunUntil return after the current event completes. It is
// typically called from within an event or process.
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

// Pending reports the number of scheduled (non-canceled) events.
func (e *Engine) Pending() int { return e.live }

func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v, pending=%d}", e.now, e.live)
}
