package trace

import (
	"math/rand"
	"sort"
	"testing"

	"element/internal/sim"
	"element/internal/units"
)

// propSchedule drives the collector's hooks directly with a seeded-random
// event schedule that includes out-of-order deliveries, duplicated and
// partially-overlapping receive stamps, and spurious re-transmissions —
// the stamp patterns a reordering or duplicating path (the faults package's
// reorder/flaky-path profiles) produces, but without a stack in between so
// the adversarial cases hit the bookkeeping unconditionally. It returns
// the collector after a final read that consumes the whole stream, and
// the stream's length.
func propSchedule(t *testing.T, seed int64, steps int) (*Collector, uint64) {
	t.Helper()
	eng := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	c := New(eng)
	sh, rh := c.SenderHooks(), c.ReceiverHooks()
	var txEnd uint64 // transmitted prefix

	eng.Spawn("driver", func(p *sim.Proc) {
		var (
			written uint64 // app stream extent
			readCum uint64
			segs    []rangeStamp // transmitted segments, in seq order
			undeliv []int        // indices into segs not yet delivered
		)
		for i := 0; i < steps; i++ {
			p.Sleep(units.Duration(rng.Intn(2_000_001))) // 0..2ms
			switch action := rng.Intn(10); {
			case action < 3: // app write
				n := 1 + rng.Intn(3000)
				written += uint64(n)
				sh.AppWrite(written, n)
			case action < 6: // first transmission of the next chunk
				if txEnd >= written {
					continue
				}
				n := 1 + rng.Intn(1448)
				if uint64(n) > written-txEnd {
					n = int(written - txEnd)
				}
				sh.TCPTransmit(txEnd, n, false)
				segs = append(segs, rangeStamp{start: txEnd, end: txEnd + uint64(n)})
				undeliv = append(undeliv, len(segs)-1)
				txEnd += uint64(n)
			case action < 7: // re-transmission of a random old segment
				if len(segs) == 0 {
					continue
				}
				// Flagged, at the segment's first start, as tcp.Endpoint
				// sends every copy after the first: the first
				// transmission's stamp must stand.
				s := segs[rng.Intn(len(segs))]
				sh.TCPTransmit(s.start, int(s.end-s.start), true)
			case action < 9: // out-of-order delivery, sometimes duplicated
				if len(undeliv) == 0 {
					continue
				}
				j := rng.Intn(len(undeliv))
				s := segs[undeliv[j]]
				switch rng.Intn(4) {
				case 0: // duplicate: deliver without retiring
				case 1: // overlapping fragment starting mid-segment
					if span := s.end - s.start; span > 1 {
						off := 1 + rng.Int63n(int64(span-1))
						rh.TCPReceive(s.start+uint64(off), int(s.end-s.start-uint64(off)))
					}
				default:
					undeliv = append(undeliv[:j], undeliv[j+1:]...)
				}
				rh.TCPReceive(s.start, int(s.end-s.start))
			default: // app read up to a random point in the transmitted prefix
				if txEnd <= readCum {
					continue
				}
				n := 1 + uint64(rng.Int63n(int64(txEnd-readCum)))
				readCum += n
				rh.AppRead(readCum, int(n))
			}
		}
		// Drain: deliver everything outstanding, then read the full stream.
		p.Sleep(units.Millisecond)
		for _, j := range undeliv {
			rh.TCPReceive(segs[j].start, int(segs[j].end-segs[j].start))
		}
		p.Sleep(units.Millisecond)
		if txEnd > readCum {
			rh.AppRead(txEnd, int(txEnd-readCum))
		}
	})
	eng.Run()
	return c, txEnd
}

// checkSeries asserts the delay-sample invariants every consumer of the
// ground truth relies on: timestamps never go backwards, no negative
// delays, and every sample covers at least one byte.
func checkSeries(t *testing.T, name string, s Series) {
	t.Helper()
	var last units.Time
	for i, x := range s {
		if x.At < last {
			t.Fatalf("%s[%d]: timestamp %v before predecessor %v", name, i, x.At, last)
		}
		last = x.At
		if x.Delay < 0 {
			t.Fatalf("%s[%d]: negative delay %v", name, i, x.Delay)
		}
		if x.Bytes <= 0 {
			t.Fatalf("%s[%d]: non-positive byte count %d", name, i, x.Bytes)
		}
	}
}

// TestCollectorPropertyOutOfOrder is the robustness check for the
// ground truth: under randomized out-of-order, duplicated, and
// overlapping receive stamps the collector must not panic, must keep
// every series monotone in time with non-negative delays, and must
// account for at least the full stream once everything is read. That the
// final read leaves no arrival queued TestRecorderPropertyOutOfOrder
// holds of the recorder under the same kinds of schedule, and that its
// segment records stay sorted and distinct FuzzRecorder does.
func TestCollectorPropertyOutOfOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c, stream := propSchedule(t, seed, 2000)

		checkSeries(t, "senderDelay", c.SenderDelay())
		checkSeries(t, "networkDelay", c.NetworkDelay())
		checkSeries(t, "receiverDelay", c.ReceiverDelay())

		// Every read byte was covered by at least one receive stamp, so the
		// receiver-delay samples must account for the whole stream; with
		// duplicates they may exceed it, never undershoot.
		var rcvBytes uint64
		for _, x := range c.ReceiverDelay() {
			rcvBytes += uint64(x.Bytes)
		}
		if rcvBytes < stream {
			t.Fatalf("seed %d: receiver delay covers %d bytes < %d read", seed, rcvBytes, stream)
		}
	}
}

// TestCollectorPropertyDeterministic pins the collector's schedule-driven
// output: identical seeds must reproduce identical series, byte for byte.
func TestCollectorPropertyDeterministic(t *testing.T) {
	a, _ := propSchedule(t, 42, 1500)
	b, _ := propSchedule(t, 42, 1500)
	same := func(name string, x, y Series) {
		if len(x) != len(y) {
			t.Fatalf("%s: %d vs %d samples across identical runs", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s[%d]: %+v vs %+v", name, i, x[i], y[i])
			}
		}
	}
	same("senderDelay", a.SenderDelay(), b.SenderDelay())
	same("networkDelay", a.NetworkDelay(), b.NetworkDelay())
	same("receiverDelay", a.ReceiverDelay(), b.ReceiverDelay())
}

// TestReceivesOrderMatchesSort pins the reference collector's sort-free
// receive list against the append-and-sort it replaced: under out-of-order, duplicate
// and overlapping stamps interleaved with partial reads, the live stamps
// must be exactly what re-sorting after every append gives. The reference
// sorts stably — the order the old sort.Slice produced whenever it was
// defined (equal starts only arise from duplicates, which a real receiver
// never reports twice). Enough stamps are consumed that head compaction
// runs many times, and enough late arrivals land near the head that the
// hole-fill moves the shorter, front side down into the consumed slack.
func TestReceivesOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		eng := sim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		c := newRef(eng)
		var ref []rangeStamp
		var next, read uint64 // stream extent stamped so far; bytes read
		compactions, frontFills := 0, 0
		for step := 0; step < 6000; step++ {
			eng.RunFor(units.Duration(1 + rng.Intn(1000)))
			var seq uint64
			n := 1 + rng.Intn(1448)
			switch r := rng.Intn(10); {
			case r < 6: // in order
				seq = next
			case r < 8: // ahead of a hole
				seq = next + uint64(1+rng.Intn(3000))
			case r < 9 && len(ref) > 0: // duplicate of a live stamp
				d := ref[rng.Intn(len(ref))]
				seq, n = d.start, int(d.end-d.start)
			default: // late arrival somewhere in the unread stream
				seq = read + uint64(rng.Int63n(int64(next-read)+1))
			}
			head := c.recvHead
			c.onTCPReceive(seq, n)
			if c.recvHead < head {
				frontFills++
			}
			ref = append(ref, rangeStamp{start: seq, end: seq + uint64(n), at: eng.Now()})
			sort.SliceStable(ref, func(a, b int) bool { return ref[a].start < ref[b].start })
			if end := seq + uint64(n); end > next {
				next = end
			}
			if rng.Intn(3) == 0 && next > read {
				read += 1 + uint64(rng.Int63n(int64(next-read)))
				head := c.recvHead
				c.onAppRead(read, 0)
				if c.recvHead < head {
					compactions++
				}
				for len(ref) > 0 && ref[0].start < read {
					if ref[0].end > read {
						ref[0].start = read
						break
					}
					ref = ref[1:]
				}
			}
			live := c.receives[c.recvHead:]
			if len(live) != len(ref) {
				t.Fatalf("seed %d step %d: %d live stamps, reference has %d", seed, step, len(live), len(ref))
			}
			for i := range ref {
				if live[i] != ref[i] {
					t.Fatalf("seed %d step %d: stamp %d is %+v, reference %+v", seed, step, i, live[i], ref[i])
				}
			}
		}
		if compactions == 0 {
			t.Fatalf("seed %d: head compaction never ran; test does not cover it", seed)
		}
		if frontFills == 0 {
			t.Fatalf("seed %d: no hole-fill shifted the front side; test does not cover it", seed)
		}
	}
}
