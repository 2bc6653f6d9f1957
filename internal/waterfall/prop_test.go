package waterfall

import (
	"math/rand"
	"testing"

	"element/internal/pkt"
	"element/internal/units"
)

// chooser is where a schedule's decisions come from: a seeded generator
// for the property tests, the fuzzer's bytes for FuzzRecorder.
type chooser interface {
	// Intn returns a value in [0, n); n > 0.
	Intn(n int) int
}

// byteChooser draws decisions from a fuzz input, two bytes each, and
// answers 0 once it runs out — which done reports, ending the schedule.
type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) < 2 {
		c.data = nil
		return 0
	}
	v := int(c.data[0])<<8 | int(c.data[1])
	c.data = c.data[2:]
	return v % n
}

func (c *byteChooser) done() bool { return len(c.data) < 2 }

// propDrive feeds h a schedule drawn from src through the recorder's whole
// hook surface — no stack, no links. Deliveries arrive out of order,
// duplicated, and as overlapping fragments, the stamp patterns the faults
// package's reorder and flaky-path profiles generate; packet-level
// snapshots (onPacketRecv) are attached to only some deliveries so both
// the snapshot path and the coveringSeg fallback run. Every transmitted
// copy is one *pkt.Packet from transmit to its last delivery, as on the
// real path, and meets one of the link tap's fates: untapped, rejected at
// enqueue, queued and dequeued, lost on the wire, or dropped inside the
// queue with no event (what a CoDel head drop does). A stale burst drops
// hundreds of copies in the queue at once; they must leave nothing behind.
// An accepted enqueue writes EnqueuedAt first, as every discipline does.
// The schedule ends after steps ops, or when stop (if not nil) reports
// true, with a full drain: everything delivered, released in order, and
// read.
func propDrive(src chooser, steps int, stop func() bool, now *units.Time, h recHooks) {
	type seg struct {
		start, end uint64
		gen        int
		delivered  bool
	}
	// copyState is where one transmitted copy of a segment is.
	type copyState uint8
	const (
		untapped copyState = iota // no link record; deliverable
		queued                    // enqueued, not yet dequeued
		wire                      // dequeued; deliverable
	)
	type pktCopy struct {
		seg   int
		p     *pkt.Packet
		state copyState
	}
	var (
		written, txEnd, inOrder, readCum uint64
		segs                             []seg
		copies                           []pktCopy // live copies, any order
		inOrderIdx                       int       // segs[:inOrderIdx] all delivered
	)
	newCopy := func(idx int) pktCopy {
		s := segs[idx]
		return pktCopy{seg: idx, p: &pkt.Packet{Seq: s.start, PayloadLen: int(s.end - s.start), Gen: s.gen}}
	}
	enqueue := func(p *pkt.Packet, accepted bool) {
		if accepted {
			p.EnqueuedAt = *now
		}
		h.onLinkEnqueue(p, *now, accepted)
	}
	dropCopy := func(i int) {
		copies[i] = copies[len(copies)-1]
		copies = copies[:len(copies)-1]
	}
	// launch gives a freshly transmitted copy its fate at the link.
	launch := func(c pktCopy) {
		switch fate := src.Intn(8); {
		case fate < 2:
			c.state = untapped
			copies = append(copies, c)
		case fate < 3:
			enqueue(c.p, false)
		case fate < 4: // accepted, then dropped in the queue: no further event
			enqueue(c.p, true)
		default:
			enqueue(c.p, true)
			c.state = queued
			copies = append(copies, c)
		}
	}
	transmitNew := func(n int) {
		h.onTransmit(txEnd, n, false)
		segs = append(segs, seg{start: txEnd, end: txEnd + uint64(n)})
		txEnd += uint64(n)
	}
	retransmit := func(idx int) pktCopy {
		s := &segs[idx]
		h.onTransmit(s.start, int(s.end-s.start), true)
		s.gen++
		return newCopy(idx)
	}
	// receive delivers [start, end) of copy p; with snapshot, the
	// packet-recv hook fires first, in the same virtual instant as the
	// TCPReceive it feeds.
	receive := func(p *pkt.Packet, start, end uint64, snapshot bool) {
		if snapshot {
			h.onPacketRecv(p)
		}
		h.onTCPReceive(start, int(end-start))
	}
	deliver := func(c pktCopy, snapshot bool) {
		s := segs[c.seg]
		receive(c.p, s.start, s.end, snapshot)
	}
	advanceInOrder := func() {
		for inOrderIdx < len(segs) && segs[inOrderIdx].delivered {
			inOrder = segs[inOrderIdx].end
			inOrderIdx++
		}
		h.onInOrder(inOrder)
	}
	// recoverOldest retransmits the k oldest undelivered segments through
	// the whole link and delivers them, as loss recovery does: it is what
	// lets the read horizon pass a burst of stale copies.
	recoverOldest := func(k int) {
		for idx := inOrderIdx; idx < len(segs) && k > 0; idx++ {
			if segs[idx].delivered {
				continue
			}
			c := retransmit(idx)
			enqueue(c.p, true)
			h.onLinkDequeue(c.p, *now)
			deliver(c, true)
			segs[idx].delivered = true
			k--
		}
		advanceInOrder()
	}

	for i := 0; i < steps && (stop == nil || !stop()); i++ {
		*now = now.Add(units.Duration(src.Intn(2_000_001))) // 0..2ms
		switch action := src.Intn(20); {
		case action < 4: // app write
			n := 1 + src.Intn(3000)
			written += uint64(n)
			h.onAppWrite(written, n)
		case action < 8: // first transmission, in sequence order
			if txEnd >= written {
				continue
			}
			n := 1 + src.Intn(1448)
			if uint64(n) > written-txEnd {
				n = int(written - txEnd)
			}
			transmitNew(n)
			launch(newCopy(len(segs) - 1))
		case action < 10: // retransmission: a new generation, a new copy
			if inOrderIdx >= len(segs) {
				continue
			}
			idx := inOrderIdx + src.Intn(len(segs)-inOrderIdx)
			if segs[idx].delivered {
				continue
			}
			launch(retransmit(idx))
		case action < 12: // the link moves a copy along
			if len(copies) == 0 {
				continue
			}
			j := src.Intn(len(copies))
			c := copies[j]
			switch {
			case c.state == queued && src.Intn(6) == 0: // dropped in the queue, silently
				dropCopy(j)
			case c.state == queued:
				h.onLinkDequeue(c.p, *now)
				copies[j].state = wire
			case c.state == wire && src.Intn(4) == 0:
				h.onLinkLost(c.p)
				dropCopy(j)
			}
		case action < 16: // out-of-order delivery with duplicates and overlaps
			if len(copies) == 0 {
				continue
			}
			j := src.Intn(len(copies))
			c := copies[j]
			s := segs[c.seg]
			snapshot := src.Intn(2) == 0
			switch src.Intn(4) {
			case 0: // duplicate: deliver now, again later
			case 1: // overlapping fragment from mid-segment first
				if span := int(s.end - s.start); span > 1 {
					off := uint64(1 + src.Intn(span-1))
					frag := &pkt.Packet{Seq: s.start + off, PayloadLen: span - int(off), Gen: c.p.Gen}
					receive(frag, s.start+off, s.end, src.Intn(2) == 0)
				}
				fallthrough
			default:
				segs[c.seg].delivered = true
				dropCopy(j)
			}
			deliver(c, snapshot)
			advanceInOrder()
		case action < 17: // loss recovery of the oldest holes
			recoverOldest(1 + src.Intn(256))
		case action < 18 && src.Intn(12) == 0: // stale burst
			k := 1 + src.Intn(1200)
			written += uint64(100 * k)
			h.onAppWrite(written, 100*k)
			for ; k > 0; k-- {
				transmitNew(100)
				enqueue(newCopy(len(segs)-1).p, true)
			}
		default: // app read within the in-order prefix
			if inOrder <= readCum {
				continue
			}
			n := uint64(1 + src.Intn(int(inOrder-readCum)))
			readCum += n
			h.onAppRead(readCum, int(n))
		}
	}
	// Drain: deliver what is still in flight, recover the rest, release it
	// in order, read the stream.
	*now = now.Add(units.Millisecond)
	for _, c := range copies {
		deliver(c, src.Intn(2) == 0)
		segs[c.seg].delivered = true
	}
	recoverOldest(len(segs))
	*now = now.Add(units.Millisecond)
	if txEnd > readCum {
		h.onAppRead(txEnd, int(txEnd-readCum))
	}
}

// propRecorder runs one seeded schedule against a lone Recorder.
func propRecorder(seed int64, steps int) *Recorder {
	var now units.Time
	wf := New()
	wf.SetClock(func() units.Time { return now })
	r := wf.NewFlow()
	propDrive(rand.New(rand.NewSource(seed)), steps, nil, &now, r)
	return r
}

// TestRecorderMatchesReference holds the recorder — packet stamps for the
// link table, a head-indexed arrival queue — to the keyed table and sorted
// slices it replaced, after every op of seeded schedules that drop
// thousands of copies inside the queue.
func TestRecorderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var now units.Time
		p := newRecorderPair(t, &now)
		propDrive(rand.New(rand.NewSource(seed)), 3000, nil, &now, p)
		p.checkRetained()
		if len(p.refFinal) == 0 {
			t.Fatalf("seed %d: nothing finalized", seed)
		}
	}
}

// FuzzRecorder is the same oracle under the fuzzer's schedules.
func FuzzRecorder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 600)
		rng.Read(data)
		f.Add(data)
	}
	// A schedule that opens with stale bursts: thousands of copies dropped
	// in the queue before the first delivery.
	burst := make([]byte, 0, 400)
	for i := 0; i < 4; i++ {
		burst = append(burst, 0, 1, 0, 17, 0, 0, 4, 175) // advance 1ns; action 17; burst roll 0; k = 1200
	}
	for i := 0; i < 150; i++ {
		burst = append(burst, byte(i), byte(i*7))
	}
	f.Add(burst)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip() // bursts make a schedule's cost quadratic in its length
		}
		var now units.Time
		src := &byteChooser{data: data}
		p := newRecorderPair(t, &now)
		propDrive(src, 1<<30, src.done, &now, p)
		p.checkRetained()
	})
}

// TestRecorderPropertyOutOfOrder asserts the attribution invariants that
// make the waterfall trustworthy regardless of delivery order: boundary
// stamps telescope monotonically (so no stage has negative residency),
// every arrival is eventually finalized, and the per-stage byte·second
// sums reconcile exactly with the end-to-end integral.
func TestRecorderPropertyOutOfOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := propRecorder(seed, 2000)

		if live := r.arrivals[r.arrHead:]; len(live) != 0 {
			t.Fatalf("seed %d: %d arrivals left after full drain", seed, len(live))
		}
		if r.inHead != 0 {
			t.Fatalf("seed %d: inHead %d out of sync with drained arrivals", seed, r.inHead)
		}
		for rr := range r.ranges.All() {
			for i := 1; i < numBounds; i++ {
				if rr.b[i] < rr.b[i-1] {
					t.Fatalf("seed %d: range [%d,%d) boundary %d at %v before boundary %d at %v",
						seed, rr.start, rr.end, i, rr.b[i], i-1, rr.b[i-1])
				}
			}
		}
		for _, sp := range r.Spans() {
			if sp.To <= sp.From {
				t.Fatalf("seed %d: span %s [%d,%d) has non-positive duration", seed, sp.Stage, sp.Start, sp.End)
			}
		}

		b := r.Breakdown()
		if b.Ranges == 0 {
			t.Fatalf("seed %d: no ranges finalized", seed)
		}
		// Duplicates and overlaps inflate the byte count, never shrink it
		// below the distinct stream.
		var streamEnd uint64
		for rr := range r.ranges.All() {
			if rr.end > streamEnd {
				streamEnd = rr.end
			}
		}
		if b.Bytes < streamEnd {
			t.Fatalf("seed %d: breakdown covers %d bytes < stream end %d", seed, b.Bytes, streamEnd)
		}
		// The telescoping construction makes the stage sums equal the
		// end-to-end integral up to floating-point rounding, no matter how
		// scrambled the deliveries were.
		if b.Residual > 1e-9 {
			t.Fatalf("seed %d: stage-sum residual %.3g under reordering", seed, b.Residual)
		}
		for s := 0; s < NumStages; s++ {
			if b.Stage[s].ByteSeconds < 0 {
				t.Fatalf("seed %d: stage %s has negative residency", seed, Stage(s))
			}
		}
	}
}

// TestRecorderPropertyDeterministic pins the recorder's output under a
// fixed schedule: identical seeds must reproduce identical aggregates and
// retained spans.
func TestRecorderPropertyDeterministic(t *testing.T) {
	a := propRecorder(42, 1500)
	b := propRecorder(42, 1500)
	ba, bb := a.Breakdown(), b.Breakdown()
	if ba != bb {
		t.Fatalf("breakdowns diverge across identical runs:\n%+v\n%+v", ba, bb)
	}
	sa, sb := a.Spans(), b.Spans()
	if len(sa) != len(sb) {
		t.Fatalf("span counts diverge: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("span %d diverges: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}
