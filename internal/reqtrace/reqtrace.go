// Package reqtrace is the request-scoped span layer over the per-flow
// waterfall attribution: it assigns IDs to application-level requests,
// maps each request to the byte ranges it occupies on each flow, and
// joins the six-stage waterfall boundaries into one span tree per
// request. For a fan-out request (1→N backends, response gated on the
// slowest leg) the parent span closes when the last leg's bytes are
// read, the critical-path child is identified, and the end-to-end delay
// decomposes into the six waterfall stages plus a seventh
// "waiting on slowest sibling" stage.
//
// Decomposition convention (mean over legs): each leg's delay is split
// by its last byte range's clamped boundaries — request-sndbuf is
// issue→firstTx (folding any pre-write app wait into the sndbuf stage),
// stages 1..5 are the waterfall fenceposts, and sibwait is the gap from
// the leg's read to the slowest sibling's read. Every leg's stages plus
// its sibwait telescope exactly to the request's end-to-end delay, so
// the per-request mean over N legs telescopes exactly too: the reported
// stages sum to end-to-end within float rounding, the same contract the
// waterfall gives per byte range. All accumulation is integer
// nanoseconds, so results are bit-identical for any shard layout that
// preserves per-request event order.
//
// The span-record path (Flow.RecordRange, driven by the waterfall's
// OnFinalize callback) is allocation-free in steady state: requests are
// freelist-recycled fixed-size structs, per-flow leg FIFOs compact in
// place, and a retained request is one entry of a packed stats.Log
// (about 31 B) whose chunks never move. Per-stage sketches mirror the
// exact records so tail reports can cross-check approximate against
// exact quantiles, and Absorb merges tracers shard-invariantly.
package reqtrace

import (
	"cmp"
	"slices"
	"sort"

	"element/internal/stats"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

// Request-level stages: the waterfall's six plus the fan-out gap.
const (
	// StageSibwait is the seventh request-level stage: the time a
	// finished leg waits for its slowest sibling.
	StageSibwait = waterfall.NumStages

	// NumStages counts the request-level stages.
	NumStages = waterfall.NumStages + 1
)

// StageName names a request-level stage as used in reports and exports.
func StageName(s int) string {
	if s >= 0 && s < waterfall.NumStages {
		return waterfall.Stage(s).String()
	}
	if s == StageSibwait {
		return "sibwait"
	}
	return "unknown"
}

// Defaults for Tracer knobs left zero.
const (
	// DefaultMaxRecords bounds retained per-request records; beyond it
	// retention decimates deterministically while the sketches stay
	// exact over every completed request.
	DefaultMaxRecords = 1 << 22
	// DefaultSlowCap bounds the retained slowest span trees.
	DefaultSlowCap = 32
)

// Record is one completed request's compact attribution: the mean-over-
// legs stage decomposition (seconds), which sums to Done-Issue within
// float rounding.
type Record struct {
	ID       uint64
	Issue    units.Time
	Done     units.Time // slowest leg's app read
	Fanout   int32
	Critical int32 // leg index on the critical path (its sibwait is 0)
	Stage    [NumStages]float64
}

// E2E is the request's end-to-end delay: issue to slowest leg read.
func (r *Record) E2E() units.Duration { return r.Done.Sub(r.Issue) }

// Residual is the telescoping error |Σstages − e2e| / e2e (0 when e2e
// is zero).
func (r *Record) Residual() float64 {
	e2e := r.E2E().Seconds()
	if e2e <= 0 {
		return 0
	}
	var sum float64
	for _, v := range r.Stage {
		sum += v
	}
	d := sum - e2e
	if d < 0 {
		d = -d
	}
	return d / e2e
}

// Leg is one child flow's contribution to a request: its byte range on
// that flow and, once done, the last range's clamped boundaries.
type Leg struct {
	Flow       int
	Start, End uint64
	Done       units.Time // app read of the leg's last byte (0 = pending)
	Gen        int        // retransmit generation of the closing range
	B          waterfall.Bounds
}

// SpanTree is one retained request with full per-leg detail — the
// exporters' unit of work.
type SpanTree struct {
	Record
	Legs []Leg
}

// Request is one in-flight request's accumulation state. Obtain with
// Tracer.Begin, declare legs with Flow.Send; the tracer recycles it
// after completion — callers must not retain it past their done
// callback.
type Request struct {
	t        *Tracer
	id       uint64
	issue    units.Time
	fanout   int32
	legsDone int32
	critical int32
	maxDone  units.Time
	sumDone  int64 // Σ leg done times, ns
	sumStage [waterfall.NumStages]int64
	done     func()
	legs     []Leg
}

// pendingLeg is one declared leg awaiting its flow's byte ranges.
type pendingLeg struct {
	req *Request
	idx int32
}

// Flow maps one connection's finalized byte ranges onto declared legs.
// Legs complete in sequence order (reads are cumulative), so a FIFO
// with a head pointer suffices.
type Flow struct {
	t     *Tracer
	label int
	legs  []pendingLeg
	head  int
}

// Tracer owns the request-span state of one engine (one fleet shard or
// one scenario). It is engine-agnostic: bind a clock with SetClock.
// Not safe for concurrent use; fleets keep one tracer per shard and
// Absorb them at drain.
type Tracer struct {
	// MaxRecords bounds retained per-request records (0 =
	// DefaultMaxRecords, negative = unlimited). Past the bound,
	// retention decimates with a doubling stride; quantiles from
	// Records then cover a deterministic subset while the sketches
	// remain exact over all completions.
	MaxRecords int
	// SlowCap bounds retained slowest span trees (0 = DefaultSlowCap,
	// negative = none).
	SlowCap int

	clock     func() units.Time
	flows     []*Flow
	free      []*Request
	begun     uint64
	completed uint64
	stray     uint64 // bytes finalized under no declared leg

	records  stats.DecimatedLog[entry]
	absorbed []stats.Log[entry] // shard tracers' records, as Absorb took them

	slow []*SpanTree // min-heap: root = least slow retained

	// sk[0] observes e2e, sk[1+s] stage s — over every completion,
	// regardless of record decimation. Merged exactly by Absorb.
	sk [NumStages + 1]stream.Sketch
	se [NumStages + 1]*stream.Series
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// SetClock binds the virtual clock (typically sim.Engine.Now).
func (t *Tracer) SetClock(fn func() units.Time) {
	if t != nil {
		t.clock = fn
	}
}

func (t *Tracer) now() units.Time {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

func (t *Tracer) maxRecords() int {
	switch {
	case t.MaxRecords == 0:
		return DefaultMaxRecords
	case t.MaxRecords < 0:
		return 1 << 62
	}
	return t.MaxRecords
}

func (t *Tracer) slowCap() int {
	switch {
	case t.SlowCap == 0:
		return DefaultSlowCap
	case t.SlowCap < 0:
		return 0
	}
	return t.SlowCap
}

// Flow registers a connection under the given label (conventionally the
// leg/backend index) and joins it to the recorder's finalized byte
// ranges. Pass nil rec to drive RecordRange directly (benchmarks,
// tests).
func (t *Tracer) Flow(label int, rec *waterfall.Recorder) *Flow {
	f := &Flow{t: t, label: label}
	t.flows = append(t.flows, f)
	rec.OnFinalize(f.RecordRange)
	return f
}

// Begin opens a request: id must be unique across the run (fleets use
// group<<32|seq so IDs are shard-layout independent), fanout is the
// number of legs the caller will declare with Flow.Send, and done (may
// be nil) fires once when the slowest leg's bytes are read — the
// closed-loop workload's issue-next signal. Allocation-free once the
// freelist is warm.
func (t *Tracer) Begin(id uint64, fanout int, done func()) *Request {
	var r *Request
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = &Request{}
	}
	r.t = t
	r.id = id
	r.issue = t.now()
	r.fanout = int32(fanout)
	r.legsDone = 0
	r.critical = 0
	r.maxDone = 0
	r.sumDone = 0
	for s := range r.sumStage {
		r.sumStage[s] = 0
	}
	r.done = done
	r.legs = r.legs[:0]
	t.begun++
	return r
}

// Send declares the next leg of r on this flow: the half-open byte
// range [start,end) the request occupies there. Declare all legs at
// issue time, before the flow's writer moves the bytes.
func (f *Flow) Send(r *Request, start, end uint64) {
	r.legs = append(r.legs, Leg{Flow: f.label, Start: start, End: end})
	f.legs = append(f.legs, pendingLeg{req: r, idx: int32(len(r.legs) - 1)})
}

// RecordRange is the span-record hot path: one finalized byte range
// [start,end) of this flow with its clamped waterfall boundaries. It is
// wired to the recorder's OnFinalize by Tracer.Flow; a leg completes
// when a range covers its last byte. Ranges arrive in sequence order
// (reads are cumulative); a range straddling a leg boundary (TCP
// coalescing adjacent requests) closes every leg it covers.
// Allocation-free in steady state.
func (f *Flow) RecordRange(start, end uint64, gen int, b waterfall.Bounds) {
	for start < end && f.head < len(f.legs) {
		pl := f.legs[f.head]
		lg := &pl.req.legs[pl.idx]
		if end <= lg.Start {
			// Bytes below the first pending leg: traffic not belonging
			// to any declared request.
			f.t.stray += end - start
			return
		}
		if start >= lg.End {
			// The range begins past the pending leg's end: its closing
			// bytes were finalized unseen (recorder attached late).
			// Close the leg with this range's boundaries rather than
			// wedging the FIFO.
			f.t.legDone(pl.req, pl.idx, gen, b)
			f.pop()
			continue
		}
		if end < lg.End {
			// The leg's last byte is still unread; a later range
			// finishes it.
			return
		}
		f.t.legDone(pl.req, pl.idx, gen, b)
		f.pop()
		start = lg.End
	}
	if start < end && f.head >= len(f.legs) {
		f.t.stray += end - start
	}
}

// pop advances the leg FIFO, compacting in place (no allocation) once
// the dead prefix dominates.
func (f *Flow) pop() {
	f.head++
	if f.head > 128 && f.head*2 >= len(f.legs) {
		m := copy(f.legs, f.legs[f.head:])
		f.legs = f.legs[:m]
		f.head = 0
	}
}

// legDone folds one completed leg into its request: boundaries clamp to
// the issue time (request-sndbuf is issue→firstTx, so pre-write wait
// counts as sndbuf), stage durations accumulate in integer nanoseconds,
// and the request completes when its last leg does.
func (t *Tracer) legDone(r *Request, idx int32, gen int, b waterfall.Bounds) {
	lg := &r.legs[idx]
	if lg.Done != 0 {
		return
	}
	if b[0] < r.issue {
		b[0] = r.issue
	}
	for k := 1; k < len(b); k++ {
		if b[k] < b[k-1] {
			b[k] = b[k-1]
		}
	}
	lg.B = b
	lg.Gen = gen
	done := b[len(b)-1]
	lg.Done = done
	r.sumStage[0] += int64(b[1].Sub(r.issue))
	for s := 1; s < waterfall.NumStages; s++ {
		r.sumStage[s] += int64(b[s+1].Sub(b[s]))
	}
	r.sumDone += int64(done)
	switch {
	case r.legsDone == 0 || done > r.maxDone:
		r.maxDone = done
		r.critical = idx
	case done == r.maxDone && idx < r.critical:
		r.critical = idx
	}
	r.legsDone++
	if r.legsDone == r.fanout {
		t.complete(r)
	}
}

// complete builds the request's record, observes sketches and stream
// series, retains, fires the done callback, and recycles the request.
func (t *Tracer) complete(r *Request) {
	e := entry{
		id:       r.id,
		issue:    r.issue,
		done:     r.maxDone,
		fanout:   r.fanout,
		critical: r.critical,
		sum:      r.sumStage,
		wait:     int64(r.maxDone)*int64(r.fanout) - r.sumDone,
	}
	rec := e.record()

	e2e := rec.E2E().Seconds()
	t.sk[0].Observe(e2e)
	if t.se[0] != nil {
		t.se[0].Observe(rec.Done, e2e)
	}
	for s := 0; s < NumStages; s++ {
		t.sk[1+s].Observe(rec.Stage[s])
		if t.se[1+s] != nil {
			t.se[1+s].Observe(rec.Done, rec.Stage[s])
		}
	}

	t.records.Keep(e, t.maxRecords())
	t.retainSlow(r, &rec)
	t.completed++
	done := r.done
	t.release(r)
	if done != nil {
		done()
	}
}

func (t *Tracer) release(r *Request) {
	r.done = nil
	r.legs = r.legs[:0]
	t.free = append(t.free, r)
}

// entry is a retained request as the tracer keeps it: the integer state
// its Record is derived from (record).
type entry struct {
	id               uint64
	issue, done      units.Time
	fanout, critical int32
	sum              [waterfall.NumStages]int64 // Σ over legs of each stage, ns
	wait             int64                      // maxDone·fanout − Σ leg done, ns
}

// record derives the request's Record: each stage is its sum over the
// legs divided by the fanout, in float64 from integer nanoseconds.
func (e entry) record() Record {
	n := float64(e.fanout)
	rec := Record{ID: e.id, Issue: e.issue, Done: e.done, Fanout: e.fanout, Critical: e.critical}
	for s := 0; s < waterfall.NumStages; s++ {
		rec.Stage[s] = units.Duration(e.sum[s]).Seconds() / n
	}
	rec.Stage[StageSibwait] = units.Duration(e.wait).Seconds() / n
	return rec
}

// Time, AppendDeltas and AppendDecoded are entry's stats.Log codec: twelve
// varints, each field's difference from the entry before, taken with
// wrapping arithmetic. Its time is done, the order requests complete in.
func (e entry) Time() units.Time { return e.done }

// AppendDeltas appends next's differences, each from the one before,
// starting from e.
func (e entry) AppendDeltas(dst []byte, next []entry) []byte {
	for i := range next {
		v := &next[i]
		dst = stats.AppendVarint(dst, int64(v.id-e.id))
		dst = stats.AppendVarint(dst, int64(v.issue-e.issue))
		dst = stats.AppendVarint(dst, int64(v.done-e.done))
		dst = stats.AppendVarint(dst, int64(v.fanout-e.fanout))
		dst = stats.AppendVarint(dst, int64(v.critical-e.critical))
		for s := range v.sum {
			dst = stats.AppendVarint(dst, v.sum[s]-e.sum[s])
		}
		dst = stats.AppendVarint(dst, v.wait-e.wait)
		e = *v
	}
	return dst
}

// AppendDecoded appends the n entries after e that src begins with.
func (e entry) AppendDecoded(dst []entry, src []byte, n int) ([]entry, int) {
	i := 0
	for range n {
		var d [5 + waterfall.NumStages + 1]int64
		for k := range d {
			d[k], i = stats.Varint(src, i)
		}
		e.id += uint64(d[0])
		e.issue += units.Time(d[1])
		e.done += units.Time(d[2])
		e.fanout += int32(d[3])
		e.critical += int32(d[4])
		for s := range e.sum {
			e.sum[s] += d[5+s]
		}
		e.wait += d[len(d)-1]
		dst = append(dst, e)
	}
	return dst, i
}

// slower is the strict retention order for span trees: by e2e, ties by
// lower ID. IDs are unique, so the order is total — which makes the
// retained slow set a pure function of the record multiset, independent
// of completion interleaving or shard layout.
func slower(a, b *Record) bool {
	ae, be := a.E2E(), b.E2E()
	if ae != be {
		return ae > be
	}
	return a.ID < b.ID
}

// retainSlow admits the request into the top-K slowest span trees
// (min-heap on slowness; the root is the first to be displaced). Only
// admissions allocate — steady state with a full heap of slower
// requests is allocation-free.
func (t *Tracer) retainSlow(r *Request, rec *Record) {
	cap := t.slowCap()
	if cap == 0 {
		return
	}
	if len(t.slow) >= cap && !slower(rec, &t.slow[0].Record) {
		return
	}
	st := &SpanTree{Record: *rec, Legs: append([]Leg(nil), r.legs...)}
	t.admitSlow(st, cap)
}

func (t *Tracer) admitSlow(st *SpanTree, cap int) {
	if len(t.slow) < cap {
		t.slow = append(t.slow, st)
		t.siftUp(len(t.slow) - 1)
		return
	}
	if !slower(&st.Record, &t.slow[0].Record) {
		return
	}
	t.slow[0] = st
	t.siftDown(0)
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !slower(&t.slow[p].Record, &t.slow[i].Record) {
			return
		}
		t.slow[p], t.slow[i] = t.slow[i], t.slow[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	n := len(t.slow)
	for {
		least := i
		if l := 2*i + 1; l < n && slower(&t.slow[least].Record, &t.slow[l].Record) {
			least = l
		}
		if r := 2*i + 2; r < n && slower(&t.slow[least].Record, &t.slow[r].Record) {
			least = r
		}
		if least == i {
			return
		}
		t.slow[i], t.slow[least] = t.slow[least], t.slow[i]
		i = least
	}
}

// StreamTo registers the per-stage request-latency series (req_e2e and
// req_<stage>) on st, observed at each request's completion time. Call
// at build time, in the same order on every shard, so fleet merges stay
// index-aligned. Nil disables.
func (t *Tracer) StreamTo(st *stream.Stream) {
	if t == nil || st == nil {
		return
	}
	t.se[0] = st.Series("req_e2e")
	for s := 0; s < NumStages; s++ {
		t.se[1+s] = st.Series("req_" + StageName(s))
	}
}

// Completed reports requests whose every leg finished.
func (t *Tracer) Completed() uint64 { return t.completed }

// Outstanding reports requests begun but not completed — at drain time,
// the abandoned (in-flight at run end) count.
func (t *Tracer) Outstanding() uint64 { return t.begun - t.completed }

// StrayBytes reports finalized bytes that matched no declared leg.
func (t *Tracer) StrayBytes() uint64 { return t.stray }

// Records decodes the retained completed-request records into a fresh
// slice sorted by ID (deterministic for any completion interleaving).
func (t *Tracer) Records() []Record {
	n := t.records.Len()
	for i := range t.absorbed {
		n += t.absorbed[i].Len()
	}
	out := make([]Record, 0, n)
	decode := func(l *stats.Log[entry]) {
		for e := range l.All() {
			out = append(out, e.record())
		}
	}
	decode(&t.records.Log)
	for i := range t.absorbed {
		decode(&t.absorbed[i])
	}
	slices.SortStableFunc(out, func(a, b Record) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Decimated reports whether record retention has dropped any records
// (exact quantiles then cover a subset; sketches remain exact).
func (t *Tracer) Decimated() bool { return t.records.Stride() > 1 }

// Slowest returns the retained slowest span trees, slowest first.
func (t *Tracer) Slowest() []*SpanTree {
	out := append([]*SpanTree(nil), t.slow...)
	sort.Slice(out, func(i, j int) bool { return slower(&out[i].Record, &out[j].Record) })
	return out
}

// Sketch returns the tracer's sketch for stage s (0..NumStages-1), or
// the e2e sketch for s = -1. The sketches observe every completion,
// immune to record decimation.
func (t *Tracer) Sketch(s int) *stream.Sketch {
	if s < 0 {
		return &t.sk[0]
	}
	return &t.sk[1+s]
}

// Absorb merges src into t: src's record logs are carried over as they
// are, not copied (Records decodes them with t's own and sorts by ID;
// t's cap does not decimate them), sketches merge exactly (associative,
// order-invariant), the slow set re-admits under the total (e2e, ID)
// order, and counters add. Call at a barrier — src must be quiescent —
// and do not reuse src after.
// Because per-request accumulation is confined to one shard and the
// merge is order-invariant, a fleet's absorbed tracer is byte-identical
// for any shard count at the same seed.
func (t *Tracer) Absorb(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	t.begun += src.begun
	t.completed += src.completed
	t.stray += src.stray
	for i := range t.sk {
		t.sk[i].Merge(&src.sk[i])
	}
	if src.records.Len() > 0 {
		t.absorbed = append(t.absorbed, src.records.Log)
	}
	t.absorbed = append(t.absorbed, src.absorbed...)
	t.records.Widen(src.records.Stride())
	cap := t.slowCap()
	for _, st := range src.slow {
		if cap > 0 {
			t.admitSlow(st, cap)
		}
	}
}
