package sim

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"

	"element/internal/units"
)

// queue is the surface the oracle script drives: the engine and the
// reference both implement it, so one script produces two transcripts.
type queue interface {
	schedule(d units.Duration, fn func()) (stop func() bool)
	at(t units.Time, fn func()) (stop func() bool)
	laneAt(lane int, t units.Time, fn func())
	step() bool
	runUntil(t units.Time)
	now() units.Time
	pending() int
}

// refQueue is the reference the engine is checked against: container/heap
// over pointer events, with Stop removing the event from the heap on the
// spot. It shares none of the engine's machinery — no slab, no free list,
// no generations, no position index, no lanes — so agreement is evidence,
// not an echo. A lane entry is an ordinary event here: that it fires where
// one At per entry would have is the whole claim a Lane makes.
type refQueue struct {
	clock units.Time
	seq   uint64
	h     refHeap
}

type refEvent struct {
	at    units.Time
	seq   uint64
	fn    func()
	index int // -1 once fired or stopped
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	ev.index = -1
	*h = old[:len(old)-1]
	return ev
}

func (q *refQueue) schedule(d units.Duration, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	return q.at(q.clock.Add(d), fn)
}

func (q *refQueue) at(t units.Time, fn func()) func() bool {
	if t < q.clock {
		t = q.clock
	}
	q.seq++
	ev := &refEvent{at: t, seq: q.seq, fn: fn}
	heap.Push(&q.h, ev)
	return func() bool {
		if ev.index < 0 {
			return false
		}
		heap.Remove(&q.h, ev.index)
		return true
	}
}

func (q *refQueue) laneAt(_ int, t units.Time, fn func()) { q.at(t, fn) }

func (q *refQueue) step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := heap.Pop(&q.h).(*refEvent)
	q.clock = ev.at
	ev.fn()
	return true
}

func (q *refQueue) runUntil(t units.Time) {
	for len(q.h) > 0 && q.h[0].at <= t {
		q.step()
	}
	if q.clock < t {
		q.clock = t
	}
}

func (q *refQueue) now() units.Time { return q.clock }
func (q *refQueue) pending() int    { return len(q.h) }

// scriptLanes is how many lanes a script spreads its lane entries over.
const scriptLanes = 3

// engineQueue adapts the real engine. schedule goes through ScheduleCall and
// at through At, so both entry points are under test.
type engineQueue struct {
	e     *Engine
	lanes [scriptLanes]*Lane
}

func newEngineQueue() *engineQueue {
	q := &engineQueue{e: New(1)}
	for i := range q.lanes {
		q.lanes[i] = q.e.NewLane(callFunc)
	}
	return q
}

func (q *engineQueue) schedule(d units.Duration, fn func()) func() bool {
	return q.e.ScheduleCall(d, callFunc, fn).Stop
}
func (q *engineQueue) at(t units.Time, fn func()) func() bool { return q.e.At(t, fn).Stop }
func (q *engineQueue) laneAt(lane int, t units.Time, fn func()) {
	q.lanes[lane].At(t, fn)
}
func (q *engineQueue) step() bool            { return q.e.Step() }
func (q *engineQueue) runUntil(t units.Time) { q.e.RunUntil(t) }
func (q *engineQueue) now() units.Time       { return q.e.Now() }
func (q *engineQueue) pending() int          { return q.e.Pending() }

// checkHeap asserts the queue's representation invariants: the heap
// property; every key's record knows its index; every non-empty lane has
// exactly its head in the heap, under the (at, seq) the entry reserved;
// Pending is the keys plus the lane entries waiting behind them; and every
// slab slot is queued xor free, a free one pinning nothing. A stopped
// event therefore has no key in the heap.
func checkHeap(t testing.TB, e *Engine, lanes ...*Lane) {
	t.Helper()
	queued := make([]bool, len(e.slab))
	heads := make(map[*Lane]eventKey)
	for i, k := range e.heap {
		if i > 0 && k.before(e.heap[(i-1)/4]) {
			t.Fatalf("heap[%d] = %+v sorts before its parent %+v", i, k, e.heap[(i-1)/4])
		}
		r := e.slab[k.slot]
		if int(r.pos) != i {
			t.Fatalf("heap[%d] is slot %d, whose record says pos %d", i, k.slot, r.pos)
		}
		if queued[k.slot] {
			t.Fatalf("slot %d has two keys in the heap", k.slot)
		}
		queued[k.slot] = true
		if r.fn == nil {
			t.Fatalf("heap[%d] (slot %d) has no callback: a dead key", i, k.slot)
		}
		if l, ok := r.arg.(*Lane); ok {
			if _, dup := heads[l]; dup {
				t.Fatalf("lane has two keys in the heap")
			}
			heads[l] = k
		}
	}
	waiting := 0
	for i, l := range lanes {
		k, ok := heads[l]
		if ok != (l.n > 0) {
			t.Fatalf("lane %d holds %d entries, key in heap: %v", i, l.n, ok)
		}
		if l.n == 0 {
			continue
		}
		waiting += l.n - 1
		if head := l.ring[l.head]; k.at != head.at || k.seq != head.seq {
			t.Fatalf("lane %d head is (%v, %d), its key (%v, %d)", i, head.at, head.seq, k.at, k.seq)
		}
		for j := 1; j < l.n; j++ {
			a, b := l.ring[(l.head+j-1)&(len(l.ring)-1)], l.ring[(l.head+j)&(len(l.ring)-1)]
			if b.at < a.at || b.seq <= a.seq {
				t.Fatalf("lane %d entries %d, %d out of order: (%v, %d) then (%v, %d)", i, j-1, j, a.at, a.seq, b.at, b.seq)
			}
		}
	}
	if waiting != e.waiting || len(e.heap)+waiting != e.Pending() {
		t.Fatalf("%d keys + %d waiting lane entries; engine says waiting %d, Pending %d",
			len(e.heap), waiting, e.waiting, e.Pending())
	}
	free := 0
	for s := e.free; s >= 0; s = e.slab[s].next {
		if queued[s] {
			t.Fatalf("slot %d is on the free list and in the heap", s)
		}
		if r := e.slab[s]; r.fn != nil || r.arg != nil {
			t.Fatalf("free slot %d still pins its callback or argument", s)
		}
		if free++; free > len(e.slab) {
			t.Fatal("free list has a cycle")
		}
	}
	if len(e.heap)+free != len(e.slab) {
		t.Fatalf("%d queued + %d free slots, slab holds %d", len(e.heap), free, len(e.slab))
	}
}

// Transcript markers, distinct from event ids, clocks and counts.
const (
	markStopTrue  = -1
	markStopFalse = -2
	markStepFalse = -3
)

// runScript interprets ops against q and returns everything observable:
// firing order, every Stop result, and the clock and pending count after
// each op; check runs after every op. Delays are a few nanoseconds wide so
// same-time ties, negative delays and past absolute times are routine; Stop
// draws from every handle ever issued, so most targets have already fired
// and had their slot reused by a later event. Lane entries step their
// lane's last timestamp by 0–3 ns, so they tie with each other and with
// plain events, and an idle lane is offered times in the past.
func runScript(q queue, ops []byte, check func()) (log []int64, fires int) {
	var stops []func() bool
	var laneLast [scriptLanes]units.Time
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	logStop := func(stopped bool) {
		if stopped {
			log = append(log, markStopTrue)
		} else {
			log = append(log, markStopFalse)
		}
	}
	// add queues event id; flags choose what its callback does beyond
	// logging itself: stop its own timer (must be false), queue a child, or
	// stop some other handle.
	var add func(flags, when int, abs bool)
	add = func(flags, when int, abs bool) {
		id := len(stops)
		stops = append(stops, nil)
		fn := func() {
			log = append(log, int64(id))
			fires++
			if flags&1 != 0 {
				logStop(stops[id]())
			}
			if flags&2 != 0 {
				add(flags>>2, when/2-2, false)
			}
			if flags&4 != 0 {
				logStop(stops[(id*7+when+3)%len(stops)]())
			}
		}
		if abs {
			stops[id] = q.at(units.Time(when), fn)
		} else {
			stops[id] = q.schedule(units.Duration(when), fn)
		}
	}
	// addLane puts event id on a lane. It has no handle (its Stop is a
	// constant false); its flags queue a plain child, append to its own
	// lane from inside the handler, or stop some other handle.
	noHandle := func() bool { return false }
	var addLane func(flags, lane, off int)
	addLane = func(flags, lane, off int) {
		id := len(stops)
		stops = append(stops, noHandle)
		t := laneLast[lane].Add(units.Duration(off))
		q.laneAt(lane, t, func() {
			log = append(log, int64(id))
			fires++
			if flags&1 != 0 {
				add(flags>>2, off-2, false)
			}
			if flags&2 != 0 {
				addLane(flags>>2, lane, off/2)
			}
			if flags&4 != 0 {
				logStop(stops[(id*7+off+3)%len(stops)]())
			}
		})
		laneLast[lane] = max(t, q.now()) // what the entry was clamped to
	}
	for len(ops) > 0 {
		switch op := next(); op % 8 {
		case 0, 1:
			add(op>>3, next()%12-3, false)
		case 2:
			b := next()
			addLane(op>>3, b%scriptLanes, b/scriptLanes%4)
		case 3:
			add(op>>3, next(), true)
		case 4, 5:
			if len(stops) > 0 {
				logStop(stops[next()%len(stops)]())
			}
		case 6:
			if !q.step() {
				log = append(log, markStepFalse)
			}
		case 7:
			q.runUntil(q.now().Add(units.Duration(next()%10 - 2)))
		}
		log = append(log, int64(q.now()), int64(q.pending()))
		check()
	}
	for q.step() {
		check()
	}
	return append(log, int64(q.now()), int64(q.pending())), fires
}

// engineVsOracle runs one script on both implementations and fails on the
// first divergence. It returns how many events fired.
func engineVsOracle(t testing.TB, ops []byte) int {
	t.Helper()
	q := newEngineQueue()
	e := q.e
	got, fires := runScript(q, ops, func() { checkHeap(t, e, q.lanes[:]...) })
	want, _ := runScript(&refQueue{}, ops, func() {})
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			from := i - 12
			if from < 0 {
				from = 0
			}
			t.Fatalf("transcripts diverge at entry %d: engine %d, oracle %d\nengine …%v\noracle …%v",
				i, got[i], want[i], got[from:i+1], want[from:i+1])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("transcript lengths differ: engine %d, oracle %d", len(got), len(want))
	}
	// checkHeap has just held on the drained engine, so with no key left
	// every slot is back on the free list, pinning nothing.
	if e.Pending() != 0 || len(e.heap) != 0 {
		t.Fatalf("drained engine: Pending %d, %d keys left in the heap", e.Pending(), len(e.heap))
	}
	for i, l := range q.lanes {
		for j, ent := range l.ring {
			if ent.arg != nil {
				t.Fatalf("drained lane %d still pins an argument in ring slot %d", i, j)
			}
		}
	}
	return fires
}

// TestEngineOracle is the property test: random interleavings of
// Schedule/At/Lane.At/Stop/Step/RunUntil must fire the same events in the same
// order, return the same Stop results and report the same clock and pending
// count as the container/heap reference.
func TestEngineOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 200+rng.Intn(3000))
		rng.Read(ops)
		if engineVsOracle(t, ops) == 0 {
			t.Fatalf("seed %d: script fired nothing; property vacuous", seed)
		}
	}
}

// FuzzEngine feeds arbitrary scripts through the same comparison.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 8, 5, 6, 6, 6})                // same-time ties, one stopping itself
	f.Add([]byte{0, 0, 3, 0, 7, 9, 4, 0, 4, 0, 0, 3, 4, 0}) // negative delay, past At, double and stale Stop
	f.Add([]byte{16, 11, 32, 4, 7, 9, 7, 9, 5, 1})          // children and cross-stops inside callbacks
	f.Add([]byte{2, 0, 2, 0, 0, 3, 2, 3, 2, 9, 6, 6, 2, 0}) // lane entries tying with each other and a plain event; an idle lane offered the past
	f.Add([]byte{18, 3, 2, 3, 10, 6, 42, 0, 7, 9, 4, 1})    // lane handlers appending to their own lane and queueing plain children
	f.Fuzz(func(t *testing.T, ops []byte) { engineVsOracle(t, ops) })
}

// TestTimerZeroValueAndStaleHandle pins the two handle edge cases by hand:
// the zero Timer is inert, and a handle whose slot has been reused by a
// later event neither reports active nor stops that later event.
func TestTimerZeroValueAndStaleHandle(t *testing.T) {
	var zero Timer
	if zero.Active() || zero.Stop() {
		t.Fatal("zero Timer is not inert")
	}
	e := New(1)
	old := e.Schedule(1, func() {})
	e.Run()
	fired := false
	cur := e.Schedule(1, func() { fired = true })
	if cur.slot != old.slot {
		t.Fatalf("slot not reused: old %d, new %d", old.slot, cur.slot)
	}
	if old.Active() || old.Stop() {
		t.Fatal("stale handle acted on the slot's new event")
	}
	if !cur.Active() {
		t.Fatal("live handle not active")
	}
	e.Run()
	if !fired {
		t.Fatal("event stopped through a stale handle")
	}
}

// TestPendingCountsLiveEvents: Pending and String agree and count what will
// fire — a stopped event leaves the heap at once, and lane entries count
// while they wait behind their lane's head.
func TestPendingCountsLiveEvents(t *testing.T) {
	e := New(1)
	var tms []Timer
	for i := 0; i < 5; i++ {
		tms = append(tms, e.Schedule(units.Duration(i+1), func() {}))
	}
	tms[1].Stop()
	tms[3].Stop()
	tms[3].Stop()
	if e.Pending() != 3 || len(e.heap) != 3 {
		t.Fatalf("Pending %d with %d keys queued, want 3 and 3", e.Pending(), len(e.heap))
	}
	l := e.NewLane(func(any) {})
	for i := 0; i < 3; i++ {
		l.At(units.Time(10+i), nil)
	}
	if e.Pending() != 6 || len(e.heap) != 4 {
		t.Fatalf("Pending %d with %d keys queued after 3 lane entries, want 6 and 4", e.Pending(), len(e.heap))
	}
	if s := e.String(); !strings.Contains(s, "pending=6") {
		t.Fatalf("String() = %q, want pending=6", s)
	}
	checkHeap(t, e, l)
	e.Step()
	if e.Pending() != 5 {
		t.Fatalf("Pending after one Step = %d, want 5", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", e.Pending())
	}
}
