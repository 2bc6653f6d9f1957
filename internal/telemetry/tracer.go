package telemetry

import (
	"math"

	"element/internal/units"
)

// Event is one structured trace record, as handed back by Events() and the
// exporters.
type Event struct {
	At        units.Time
	Component string
	Flow      int
	Name      string
	Sev       Severity
	// Sample marks a time-series point (exported as a Chrome counter
	// track) as opposed to a discrete occurrence (a Chrome instant).
	Sample bool
	Fields []Field
}

// MaxEventFields is the per-event field limit. Fields beyond it are
// dropped; every instrumentation site in the tree stays within it.
const MaxEventFields = 3

// rec is the in-ring representation of an event, packed into 56 bytes and
// pointer-free (strings live in the tracer's intern table), so the ring is
// invisible to the garbage collector and recording never allocates. bits[j]
// holds field j's float64 image, or its string-value intern id when the
// corresponding strMask bit is set.
type rec struct {
	at      units.Time
	bits    [MaxEventFields]uint64
	comp    uint16
	name    uint16
	flow    int32
	keys    [MaxEventFields]uint16
	sev     Severity
	sample  bool
	nf      uint8
	strMask uint8
}

// ringChunk is the block size the ring is carved into; blocks keep any
// single allocation modest even for very large capacities.
const ringChunk = 4096

// Tracer is a bounded ring of events. When full it evicts the oldest
// record, so a long run keeps the most recent window — the part that
// matters when diagnosing how a run ended.
//
// The ring grows lazily toward its capacity in fixed-size blocks (a short
// run only allocates what it fills, and blocks are never copied or
// discarded), and records are compact and pointer-free, so the garbage
// collector never scans them and steady-state recording costs a few
// stores and zero allocations.
type Tracer struct {
	blocks   [][]rec
	chunk    int // block size: min(ringChunk, capacity)
	count    int // records stored; ring is full when count == capacity
	capacity int
	next     int // next write position once full
	evicted  uint64

	strs     []string          // intern table, id -> string
	strIDs   map[string]uint16 // string -> id
	overflow uint16            // id returned once the intern table is full
}

// NewTracer returns a tracer holding up to cap events (cap < 1 gets
// DefaultRingCap).
func NewTracer(cap int) *Tracer {
	if cap < 1 {
		cap = DefaultRingCap
	}
	chunk := ringChunk
	if chunk > cap {
		chunk = cap
	}
	t := &Tracer{
		chunk:    chunk,
		capacity: cap,
		strIDs:   make(map[string]uint16),
	}
	t.intern("")
	t.overflow = t.intern("!interned-overflow")
	return t
}

// intern maps s to a stable small id, growing the table on first sight.
// A (pathological) run with 64k distinct strings degrades to a shared
// overflow id rather than unbounded growth.
func (t *Tracer) intern(s string) uint16 {
	if id, ok := t.strIDs[s]; ok {
		return id
	}
	if len(t.strs) >= math.MaxUint16 {
		return t.overflow
	}
	id := uint16(len(t.strs))
	t.strs = append(t.strs, s)
	t.strIDs[s] = id
	return id
}

// emit appends an event, evicting the oldest when the ring is full.
func (t *Tracer) emit(at units.Time, component string, flow int, name string, sev Severity, sample bool, fields []Field) {
	t.emitInterned(at, t.intern(component), flow, t.intern(name), sev, sample, fields)
}

// emitInterned is emit for callers (Samplers) that cached their component
// and name ids up front.
func (t *Tracer) emitInterned(at units.Time, comp uint16, flow int, name uint16, sev Severity, sample bool, fields []Field) {
	r := rec{
		at:     at,
		comp:   comp,
		name:   name,
		flow:   int32(flow),
		sev:    sev,
		sample: sample,
	}
	n := len(fields)
	if n > MaxEventFields {
		n = MaxEventFields
	}
	r.nf = uint8(n)
	for j := 0; j < n; j++ {
		f := &fields[j]
		r.keys[j] = t.intern(f.Key)
		if f.Str != "" {
			r.strMask |= 1 << j
			r.bits[j] = uint64(t.intern(f.Str))
		} else {
			r.bits[j] = math.Float64bits(f.Val)
		}
	}

	t.store(&r)
}

// emitVals is the zero-conversion recording path for Samplers with
// pre-interned keys: vals are paired positionally with keys, with the
// shorter of the two deciding the field count.
func (t *Tracer) emitVals(at units.Time, comp uint16, flow int, name uint16, keys []uint16, vals []float64) {
	r := rec{
		at:     at,
		comp:   comp,
		name:   name,
		flow:   int32(flow),
		sev:    SevInfo,
		sample: true,
	}
	n := len(vals)
	if n > len(keys) {
		n = len(keys)
	}
	if n > MaxEventFields {
		n = MaxEventFields
	}
	r.nf = uint8(n)
	for j := 0; j < n; j++ {
		r.keys[j] = keys[j]
		r.bits[j] = math.Float64bits(vals[j])
	}
	t.store(&r)
}

// store appends a finished record, evicting the oldest when the ring is
// full.
func (t *Tracer) store(r *rec) {
	if t.count < t.capacity {
		i := t.count
		if i/t.chunk == len(t.blocks) {
			t.grow()
		}
		*t.slot(i) = *r
		t.count++
		return
	}
	*t.slot(t.next) = *r
	t.evicted++
	t.next++
	if t.next == t.capacity {
		t.next = 0
	}
}

// grow allocates the next ring block.
func (t *Tracer) grow() {
	n := t.chunk
	if rem := t.capacity - len(t.blocks)*t.chunk; rem < n {
		n = rem
	}
	t.blocks = append(t.blocks, make([]rec, n))
}

// slot returns the ring record at logical index i.
func (t *Tracer) slot(i int) *rec {
	return &t.blocks[i/t.chunk][i%t.chunk]
}

// materialize converts a ring record back to the public Event shape.
func (t *Tracer) materialize(r *rec) Event {
	ev := Event{
		At:        r.at,
		Component: t.strs[r.comp],
		Flow:      int(r.flow),
		Name:      t.strs[r.name],
		Sev:       r.sev,
		Sample:    r.sample,
	}
	if r.nf > 0 {
		fs := make([]Field, r.nf)
		for j := range fs {
			fs[j].Key = t.strs[r.keys[j]]
			if r.strMask&(1<<j) != 0 {
				fs[j].Str = t.strs[uint16(r.bits[j])]
			} else {
				fs[j].Val = math.Float64frombits(r.bits[j])
			}
		}
		ev.Fields = fs
	}
	return ev
}

// Len reports the number of retained events (nil-safe).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Evicted reports how many events were overwritten after the ring filled.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted
}

// Events returns the retained events oldest-first (nil-safe), freshly
// materialized from the ring.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.count)
	start := 0
	if t.count == t.capacity {
		start = t.next
	}
	for k := 0; k < t.count; k++ {
		i := start + k
		if i >= t.capacity {
			i -= t.capacity
		}
		out = append(out, t.materialize(t.slot(i)))
	}
	return out
}
