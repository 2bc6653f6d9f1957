package waterfall

import (
	"math"
	"slices"
	"sort"
	"testing"

	"element/internal/pkt"
	"element/internal/units"
)

// recHooks is the recorder's whole input surface: what the stack's trace
// hooks and the link tap call. The drivers in prop_test.go speak it, so
// one schedule can feed a Recorder, the reference below, or both.
type recHooks interface {
	onAppWrite(endSeq uint64, n int)
	onTransmit(seq uint64, n int, retx bool)
	onLinkEnqueue(p *pkt.Packet, now units.Time, accepted bool)
	onLinkDequeue(p *pkt.Packet, now units.Time)
	onLinkLost(p *pkt.Packet)
	onPacketRecv(p *pkt.Packet)
	onTCPReceive(seq uint64, n int)
	onInOrder(cum uint64)
	onAppRead(endSeq uint64, n int)
}

// refLinkRec is one copy's record in the keyed link table the recorder
// kept before the packet carried its own stamps: found by (seq, gen).
type refLinkRec struct {
	seq   uint64
	gen   int
	enqAt units.Time
	deqAt units.Time
}

// refRecorder is the oracle for the structures the recorder no longer
// keeps: a link table keyed by (seq, gen), where the recorder now reads
// stamps off the packet, and the arrival queue as a sorted slice. It holds
// both as they were — binary search, insert and delete by shifting the
// tail, arrivals = arrivals[1:] — and runs the seven hooks that touch them
// with their old bodies. Everything those hooks feed (segment records,
// finalize, the aggregate, drop markers) is the embedded Recorder's own
// code, so a difference in output is a difference in the tables. The
// embedded Recorder's arrivals stay empty.
//
// One old body is not kept: the sweep that evicted copies ending at or
// below the read horizon once the table reached maxMarks. With no eviction
// the table answers exactly what the packet's stamps answer, given that no
// (seq, gen) passes a tapped link twice. What the sweep evicted could only
// matter to a delivery wholly below the read horizon, whose bytes a real
// TCP never reports as new — but propDrive does, so the oracle keeps every
// copy and holds the recorder to that too.
type refRecorder struct {
	*Recorder
	links    []refLinkRec
	arrivals []arrival
	inHead   int
}

func (r *refRecorder) findLink(seq uint64, gen int) (int, bool) {
	lo, hi := 0, len(r.links)
	for lo < hi {
		mid := (lo + hi) / 2
		l := r.links[mid]
		if l.seq < seq || (l.seq == seq && l.gen < gen) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.links) && r.links[lo].seq == seq && r.links[lo].gen == gen {
		return lo, true
	}
	return lo, false
}

func (r *refRecorder) onLinkEnqueue(p *pkt.Packet, now units.Time, accepted bool) {
	if !accepted {
		r.recordDrop(Drop{Seq: p.Seq, Gen: p.Gen, At: now, Kind: DropQueue})
		return
	}
	i, ok := r.findLink(p.Seq, p.Gen)
	if ok {
		r.links[i] = refLinkRec{seq: p.Seq, gen: p.Gen, enqAt: now}
		return
	}
	r.links = append(r.links, refLinkRec{})
	copy(r.links[i+1:], r.links[i:])
	r.links[i] = refLinkRec{seq: p.Seq, gen: p.Gen, enqAt: now}
}

func (r *refRecorder) onLinkDequeue(p *pkt.Packet, now units.Time) {
	if i, ok := r.findLink(p.Seq, p.Gen); ok {
		r.links[i].deqAt = now
	}
}

func (r *refRecorder) onLinkLost(p *pkt.Packet) {
	r.recordDrop(Drop{Seq: p.Seq, Gen: p.Gen, At: readClock(r.wf.clock), Kind: DropWire})
	if i, ok := r.findLink(p.Seq, p.Gen); ok {
		r.links = append(r.links[:i], r.links[i+1:]...)
	}
}

func (r *refRecorder) onPacketRecv(p *pkt.Packet) {
	r.pending.valid = true
	r.pending.seq, r.pending.end, r.pending.gen = p.Seq, p.End(), p.Gen
	var b [NumStages]units.Time
	if seg, ok := r.coveringSeg(p.Seq); ok {
		b[StageSndbuf] = seg.writeAt
		b[StageRetx] = seg.firstTx
		if p.Gen == 0 {
			b[StageQueue] = seg.firstTx
		} else {
			b[StageQueue] = seg.lastTx
		}
	}
	if i, ok := r.findLink(p.Seq, p.Gen); ok {
		l := r.links[i]
		b[StageQueue] = l.enqAt
		b[StageWire] = l.deqAt
		r.links = append(r.links[:i], r.links[i+1:]...)
	}
	r.pending.b = b
}

func (r *refRecorder) onTCPReceive(seq uint64, n int) {
	now := readClock(r.wf.clock)
	end := seq + uint64(n)
	a := arrival{start: seq, end: end}
	if r.pending.valid && seq >= r.pending.seq && end <= r.pending.end {
		a.gen = r.pending.gen
		a.b = r.pending.b
	} else if seg, ok := r.coveringSeg(seq); ok {
		a.b[StageSndbuf] = seg.writeAt
		a.b[StageRetx] = seg.firstTx
		a.b[StageQueue] = seg.lastTx
	}
	a.b[StageReassembly] = now
	i := sort.Search(len(r.arrivals), func(i int) bool { return r.arrivals[i].start >= a.start })
	r.arrivals = append(r.arrivals, arrival{})
	copy(r.arrivals[i+1:], r.arrivals[i:])
	r.arrivals[i] = a
}

func (r *refRecorder) onInOrder(cum uint64) {
	now := readClock(r.wf.clock)
	for r.inHead < len(r.arrivals) && r.arrivals[r.inHead].end <= cum {
		r.arrivals[r.inHead].b[StageRcvbuf] = now
		r.inHead++
	}
	if r.inHead < len(r.arrivals) && r.arrivals[r.inHead].start < cum {
		a := r.arrivals[r.inHead]
		left := a
		left.end = cum
		left.b[StageRcvbuf] = now
		r.arrivals[r.inHead].start = cum
		r.arrivals = append(r.arrivals, arrival{})
		copy(r.arrivals[r.inHead+1:], r.arrivals[r.inHead:])
		r.arrivals[r.inHead] = left
		r.inHead++
	}
}

func (r *refRecorder) onAppRead(endSeq uint64, n int) {
	now := readClock(r.wf.clock)
	r.readCum = endSeq
	for len(r.arrivals) > 0 && r.arrivals[0].start < endSeq {
		a := r.arrivals[0]
		if a.end <= endSeq {
			r.finalize(a, a.start, a.end, now)
			r.arrivals = r.arrivals[1:]
			if r.inHead > 0 {
				r.inHead--
			}
			continue
		}
		r.finalize(a, a.start, endSeq, now)
		r.arrivals[0].start = endSeq
		break
	}
	for r.segHead < len(r.segs) && r.segs[r.segHead].end() <= endSeq {
		r.segHead++
	}
	if r.segHead > 256 && r.segHead*2 >= len(r.segs) {
		m := copy(r.segs, r.segs[r.segHead:])
		r.segs = r.segs[:m]
		r.segHead = 0
	}
}

// refRetain is the retention rule over a plain slice, as it was.
type refRetain struct {
	ranges     []rangeRec
	stride     int
	strideSkip int
}

func (r *refRetain) retain(rr rangeRec) {
	if r.strideSkip > 0 {
		r.strideSkip--
		return
	}
	if len(r.ranges) >= maxRanges {
		k := 0
		for i := 0; i < len(r.ranges); i += 2 {
			r.ranges[k] = r.ranges[i]
			k++
		}
		r.ranges = r.ranges[:k]
		r.stride *= 2
	}
	r.strideSkip = r.stride - 1
	r.ranges = append(r.ranges, rr)
}

// finalRec is one OnFinalize callback.
type finalRec struct {
	start, end uint64
	gen        int
	b          Bounds
}

// recorderPair feeds one schedule to a Recorder, to the reference and to
// a join-only twin of the Recorder, and compares them after every op.
type recorderPair struct {
	t        testing.TB
	got      *Recorder
	ref      *refRecorder
	join     *Recorder
	gotFinal []finalRec
	refFinal []finalRec
	checked  int // finals compared so far
	retained refRetain
	ops      int
}

func newRecorderPair(t testing.TB, now *units.Time) *recorderPair {
	p := &recorderPair{t: t, retained: refRetain{stride: 1}}
	clock := func() units.Time { return *now }
	wa, wb, wj := New(), New(), NewJoinOnly()
	wa.SetClock(clock)
	wb.SetClock(clock)
	wj.SetClock(clock)
	p.got = wa.NewFlow()
	p.ref = &refRecorder{Recorder: wb.NewFlow()}
	p.join = wj.NewFlow()
	p.got.OnFinalize(func(start, end uint64, gen int, b Bounds) {
		p.gotFinal = append(p.gotFinal, finalRec{start, end, gen, b})
	})
	p.ref.OnFinalize(func(start, end uint64, gen int, b Bounds) {
		p.refFinal = append(p.refFinal, finalRec{start, end, gen, b})
		p.retained.retain(rangeRec{start: start, end: end, gen: gen, b: b})
	})
	return p
}

func (p *recorderPair) onAppWrite(endSeq uint64, n int) {
	p.got.onAppWrite(endSeq, n)
	p.ref.onAppWrite(endSeq, n)
	p.join.onAppWrite(endSeq, n)
	p.check("AppWrite")
}

func (p *recorderPair) onTransmit(seq uint64, n int, retx bool) {
	p.got.onTransmit(seq, n, retx)
	p.ref.onTransmit(seq, n, retx)
	p.join.onTransmit(seq, n, retx)
	p.check("TCPTransmit")
}

func (p *recorderPair) onLinkEnqueue(pk *pkt.Packet, now units.Time, accepted bool) {
	p.got.onLinkEnqueue(pk, now, accepted)
	p.ref.onLinkEnqueue(pk, now, accepted)
	p.join.onLinkEnqueue(pk, now, accepted)
	p.check("LinkEnqueue")
}

func (p *recorderPair) onLinkDequeue(pk *pkt.Packet, now units.Time) {
	p.got.onLinkDequeue(pk, now)
	p.ref.onLinkDequeue(pk, now)
	p.join.onLinkDequeue(pk, now)
	p.check("LinkDequeue")
}

func (p *recorderPair) onLinkLost(pk *pkt.Packet) {
	p.got.onLinkLost(pk)
	p.ref.onLinkLost(pk)
	p.join.onLinkLost(pk)
	p.check("LinkLost")
}

func (p *recorderPair) onPacketRecv(pk *pkt.Packet) {
	// The twin reads the copy's stamps first; the receive clears Tapped.
	tapped := pk.Tapped
	p.join.onPacketRecv(pk)
	pk.Tapped = tapped
	p.got.onPacketRecv(pk)
	p.ref.onPacketRecv(pk)
	p.check("PacketRecv")
}

func (p *recorderPair) onTCPReceive(seq uint64, n int) {
	p.got.onTCPReceive(seq, n)
	p.ref.onTCPReceive(seq, n)
	p.join.onTCPReceive(seq, n)
	p.check("TCPReceive")
}

func (p *recorderPair) onInOrder(cum uint64) {
	p.got.onInOrder(cum)
	p.ref.onInOrder(cum)
	p.join.onInOrder(cum)
	p.check("TCPInOrder")
}

func (p *recorderPair) onAppRead(endSeq uint64, n int) {
	p.got.onAppRead(endSeq, n)
	p.ref.onAppRead(endSeq, n)
	p.join.onAppRead(endSeq, n)
	p.check("AppRead")
}

// check holds the recorder to the reference after one op: every
// OnFinalize record so far, the drop markers, the breakdown, the count of
// retained ranges, the arrival queue and the packet snapshot; and its
// segment records to their order. The link
// table has no counterpart to compare: what it held is on the packets.
// The join-only twin must break down as the recorder does, less the
// ranges it retains, and keep no range or marker.
func (p *recorderPair) check(op string) {
	t := p.t
	t.Helper()
	p.ops++
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d (%s): "+format, append([]any{p.ops, op}, args...)...)
	}
	if len(p.gotFinal) != len(p.refFinal) {
		fail("%d ranges finalized, reference %d", len(p.gotFinal), len(p.refFinal))
	}
	for ; p.checked < len(p.refFinal); p.checked++ {
		if g, r := p.gotFinal[p.checked], p.refFinal[p.checked]; g != r {
			fail("finalized range %d is %+v, reference %+v", p.checked, g, r)
		}
	}
	if !slices.Equal(p.got.Drops(), p.ref.Drops()) {
		fail("drop markers diverge: %d vs reference %d", len(p.got.Drops()), len(p.ref.Drops()))
	}
	if g, r := p.got.Breakdown(), p.ref.Breakdown(); g != r {
		fail("breakdown\n%+v\nreference\n%+v", g, r)
	}
	want := p.got.Breakdown()
	want.Retained = 0
	if g := p.join.Breakdown(); g != want {
		fail("join-only breakdown\n%+v\nthe recorder's, less its retained ranges\n%+v", g, want)
	}
	if p.join.ranges.Len()+p.join.drops.Len()+p.join.resizes.Len() != 0 {
		fail("the join-only twin keeps %d ranges, %d drops, %d resizes",
			p.join.ranges.Len(), p.join.drops.Len(), p.join.resizes.Len())
	}
	if p.got.ranges.Len() != len(p.retained.ranges) {
		fail("%d ranges retained, reference %d", p.got.ranges.Len(), len(p.retained.ranges))
	}
	if live := p.got.arrivals[p.got.arrHead:]; !slices.Equal(live, p.ref.arrivals) {
		fail("arrival queue holds %d ranges, reference %d, or their contents differ", len(live), len(p.ref.arrivals))
	}
	if p.got.inHead != p.ref.inHead {
		fail("inHead %d, reference %d", p.got.inHead, p.ref.inHead)
	}
	if p.got.readCum != p.ref.readCum || p.got.pending != p.ref.pending {
		fail("read horizon or packet snapshot diverged")
	}
	// Segment records only ever append, so checking the newest pair after
	// every op holds them sorted and distinct: a retransmission must not
	// add one.
	if s := p.got.segs[p.got.segHead:]; len(s) >= 2 && s[len(s)-1].seq <= s[len(s)-2].seq {
		fail("segment record at %d after one at %d", s[len(s)-1].seq, s[len(s)-2].seq)
	}
}

// checkRetained compares the retained ranges element by element — after a
// schedule rather than after every op, since it walks all of them.
func (p *recorderPair) checkRetained() {
	p.t.Helper()
	checkRetainedMatches(p.t, p.got, p.retained.ranges)
}

// TestRetainDecimationMatchesSlice pushes enough ranges through retain to
// decimate twice and holds the delta-encoded log to the plain-slice rule.
// Every fencepost steps by its own amount, now and then by more than 2^32
// ns, so each stage difference is encoded, and encoded again at both
// decimations.
func TestRetainDecimationMatchesSlice(t *testing.T) {
	wf := New()
	r := wf.NewFlow()
	ref := refRetain{stride: 1}
	for i := 0; i < 2*maxRanges+maxRanges/2+17; i++ {
		rr := rangeRec{start: uint64(i), end: uint64(i + 1), gen: i % 3}
		rr.b[0] = units.Time(i)
		for k := 1; k < numBounds; k++ {
			d := units.Time(i*(2*k+1)%100003) * units.Time(k)
			if i%997 == k {
				d += 1 << 33
			}
			rr.b[k] = rr.b[k-1] + d
		}
		r.retain(rr)
		ref.retain(rr)
		if r.ranges.Len() != len(ref.ranges) || r.ranges.Stride() != ref.stride || r.ranges.Skip() != ref.strideSkip {
			t.Fatalf("range %d: retained %d stride %d skip %d, reference %d/%d/%d",
				i, r.ranges.Len(), r.ranges.Stride(), r.ranges.Skip(), len(ref.ranges), ref.stride, ref.strideSkip)
		}
	}
	if r.ranges.Stride() != 4 {
		t.Fatalf("stride %d after %d ranges, want 4: the test does not cover decimation", r.ranges.Stride(), 2*maxRanges+maxRanges/2+17)
	}
	checkRetainedMatches(t, r, ref.ranges)
}

// checkRetainedMatches compares every range r retains with want.
func checkRetainedMatches(t testing.TB, r *Recorder, want []rangeRec) {
	t.Helper()
	i := 0
	for rr := range r.ranges.All() {
		if i >= len(want) || rr != want[i] {
			t.Fatalf("retained range %d is %+v, reference %+v", i, rr, want[min(i, len(want)-1)])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%d ranges decoded, reference %d", i, len(want))
	}
}

// fieldSource draws rangeRec fields from fuzz bytes. A tag byte picks how
// a field relates to the value it is encoded against: a signed step of
// up to ±127 shifted left by as much as 63 bits (gaps, backward starts,
// stage differences that step back or pass 2^32), an extreme, eight raw
// bytes, or no change.
type fieldSource struct{ data []byte }

var fieldExtremes = [...]uint64{
	0, 1, 1 << 32, math.MaxInt64, 1 << 63 /* MinInt64 */, math.MaxUint64, math.MaxInt64 + 2,
}

func (f *fieldSource) take() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fieldSource) next(base uint64) uint64 {
	switch tag := f.take(); tag % 4 {
	case 0:
		return base + uint64(int64(int8(f.take()))<<(tag>>2))
	case 1:
		return fieldExtremes[int(tag>>2)%len(fieldExtremes)]
	case 2:
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(f.take()) << (8 * k)
		}
		return v
	}
	return base
}

// record draws one range: each field against the value its encoding is
// a difference from.
func (f *fieldSource) record(prev rangeRec) rangeRec {
	var rr rangeRec
	rr.start = f.next(prev.end)
	rr.end = f.next(rr.start)
	rr.gen = int(f.next(uint64(prev.gen)))
	rr.b[0] = units.Time(f.next(uint64(prev.b[0])))
	for k := 1; k < numBounds; k++ {
		rr.b[k] = units.Time(f.next(uint64(rr.b[k-1])))
	}
	return rr
}

// FuzzRangeLog holds rangeRec's stats.Log codec and the log's Halve, as
// retain drives them, to refRetain, the retention rule over a plain slice
// of rangeRecs. The bytes decode to a list of ranges with arbitrary
// fields, retained in order reps+1 times over (up to 3·maxRanges ranges,
// so one or two decimations decode and encode the log again); after every
// range the count, stride and skip must match, and at the end every
// decoded range.
func FuzzRangeLog(f *testing.F) {
	f.Add(uint16(0), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	// Extremes: MaxInt64 and MinInt64 fenceposts, an end before its start.
	f.Add(uint16(3), []byte{13, 17, 1, 21, 5, 21, 9, 25, 9, 1, 2, 0, 0, 0, 0, 0, 0, 0, 128, 0, 200})
	// A live flow's shape — contiguous ranges, stages of µs to ms with one
	// step back — decimated once, then twice.
	live := []byte{3, 0, 88, 3, 0, 100, 3, 0, 120, 3, 0, 40, 3, 0, 200, 0, 255, 3, 0, 50, 3}
	f.Add(uint16(40000), live)
	f.Add(uint16(35000), append(append([]byte{}, live...), 0, 1, 81, 96, 3, 3, 0, 127, 3, 3, 3, 3, 3, 3))
	// Generation 300, two varint bytes, through a decimation.
	f.Add(uint16(40000), []byte{3, 0, 88, 2, 44, 1, 0, 0, 0, 0, 0, 0, 0, 100, 3, 0, 120, 3, 0, 40, 3, 0, 200})
	f.Fuzz(func(t *testing.T, reps uint16, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		src := &fieldSource{data: data}
		var recs []rangeRec
		var prev rangeRec
		for len(src.data) > 0 {
			prev = src.record(prev)
			recs = append(recs, prev)
		}
		if len(recs) == 0 {
			return
		}
		r := New().NewFlow()
		ref := refRetain{stride: 1}
		for i := range min(len(recs)*(int(reps)+1), 3*maxRanges) {
			rr := recs[i%len(recs)]
			r.retain(rr)
			ref.retain(rr)
			if r.ranges.Len() != len(ref.ranges) || r.ranges.Stride() != ref.stride || r.ranges.Skip() != ref.strideSkip {
				t.Fatalf("range %d: retained %d stride %d skip %d, reference %d/%d/%d",
					i, r.ranges.Len(), r.ranges.Stride(), r.ranges.Skip(), len(ref.ranges), ref.stride, ref.strideSkip)
			}
		}
		checkRetainedMatches(t, r, ref.ranges)
	})
}
