package waterfall

import (
	"fmt"
	"runtime"
	"testing"

	"element/internal/pkt"
	"element/internal/units"
)

// packetCycle drives one recorder in steady state, one data packet per
// step, through everything a tapped flow's packet meets: app write,
// transmit, link enqueue; then — linkDepth packets later — dequeue, packet
// receive, TCP receive, in-order release; then — window packets later
// still — the app read that finalizes it. So linkDepth packets stand in
// the link queue, each carrying its own stamps, and the segment records
// and the arrival queue hold window ranges each. It uses only the hook
// surface, so the same driver measures the commit before the tables were
// replaced.
type packetCycle struct {
	r      *Recorder
	now    units.Time
	window int
	next   uint64 // packets started
	// pkts holds the packets in the queue, packet i at i % len: one more
	// slot than the depth, so step's enqueue never overwrites the packet
	// it is about to dequeue.
	pkts [cycleLinkDepth + 1]pkt.Packet
}

const (
	cycleLinkDepth = 64
	cycleSeg       = 1448
)

// newPacketCycle returns a cycle warmed past every slice's growth.
func newPacketCycle(window int) *packetCycle {
	c := &packetCycle{window: window}
	wf := New()
	wf.SetClock(func() units.Time { return c.now })
	c.r = wf.NewFlow()
	for i := 0; i < 4*(window+cycleLinkDepth)+1024; i++ {
		c.step()
	}
	return c
}

// packet returns packet i's slot.
func (c *packetCycle) packet(i uint64) *pkt.Packet { return &c.pkts[i%uint64(len(c.pkts))] }

func (c *packetCycle) step() {
	r, i := c.r, c.next
	c.next++
	c.now = c.now.Add(100 * units.Microsecond)
	r.onAppWrite((i+1)*cycleSeg, cycleSeg)
	r.onTransmit(i*cycleSeg, cycleSeg, false)
	p := c.packet(i)
	*p = pkt.Packet{Seq: i * cycleSeg, PayloadLen: cycleSeg, EnqueuedAt: c.now}
	r.onLinkEnqueue(p, c.now, true)
	if i < cycleLinkDepth {
		return
	}
	j := i - cycleLinkDepth
	r.onLinkDequeue(c.packet(j), c.now)
	r.onPacketRecv(c.packet(j))
	r.onTCPReceive(j*cycleSeg, cycleSeg)
	r.onInOrder((j + 1) * cycleSeg)
	if j < uint64(c.window) {
		return
	}
	r.onAppRead((j-uint64(c.window)+1)*cycleSeg, cycleSeg)
}

// BenchmarkRecorderPacket is the recorder's cost per data packet (ns/op)
// against the in-flight window, which it must not depend on. A retained
// range encodes to 18 B here, so one step in about 900 takes the
// retained-range log's next 16 KiB chunk; newPacketCycle's warm-up stops
// mid-chunk at all three windows, so the single step the gate times at
// -benchtime 1x reads 0 allocs/op.
func BenchmarkRecorderPacket(b *testing.B) {
	for _, window := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			c := newPacketCycle(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}

// TestPacketCycleAllocs pins what a packet costs in allocations at a
// warmed 512-packet window. Over 8192 packets the commit before the tables
// were replaced (5bea3a9) allocated 23 or 24 times under this same driver
// — the arrival queue re-grown each time arrivals[1:] had given its
// capacity away, and the retained-range slice growing. Now the
// retained-range log alone allocates: a 16 KiB chunk per about 800
// ranges, plus the chunks the one decimation the runs cross encodes the
// kept half into — 15 per run on average, so none comes from the arrival
// queue, whose capacity is also checked directly. AllocsPerRun truncates
// its average, so over four runs a stray runtime allocation is not
// counted as another.
func TestPacketCycleAllocs(t *testing.T) {
	const packets, maxAllocs = 8192, 16
	c := newPacketCycle(512)
	arrCap := cap(c.r.arrivals)
	total := testing.AllocsPerRun(4, func() {
		for i := 0; i < packets; i++ {
			c.step()
		}
	})
	if total > maxAllocs {
		t.Fatalf("%d packets allocated %.0f times, want at most %d (the retained-range log's chunks)",
			packets, total, maxAllocs)
	}
	if cap(c.r.arrivals) != arrCap {
		t.Fatalf("steady state moved: arrival queue capacity %d -> %d", arrCap, cap(c.r.arrivals))
	}
}

// TestRetainedRangeBytes pins what a retained range costs in bytes: over
// 8192 packets of a warmed cycle, each retaining one range, the recorder
// allocates at most 32 B per range, block index included. A range here
// costs about 20 B (a block's first range is encoded against zero, and
// each block of 32 has a 10 B index entry); held as an 80 B rangeRec it
// would not fit.
func TestRetainedRangeBytes(t *testing.T) {
	const packets, perRange = 8192, 32
	allocated := ^uint64(0)
	for try := 0; try < 3; try++ { // the least of three, should anything else allocate meanwhile
		c := newPacketCycle(512)
		retained := c.r.ranges.Len()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < packets; i++ {
			c.step()
		}
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		if got := c.r.ranges.Len() - retained; got != packets {
			t.Fatalf("%d packets retained %d ranges, want one each", packets, got)
		}
	}
	if allocated > packets*perRange {
		t.Fatalf("%d retained ranges allocated %d B, %.1f B each, want at most %d",
			packets, allocated, float64(allocated)/packets, perRange)
	}
}

// TestStaleCopiesLeaveNoState drops copies inside the queue between the
// steps of a warmed cycle — accepted at enqueue, then reset as Release
// resets them, with no further event, which is what a CoDel or FQ-CoDel
// head drop looks like to the tap. Their bytes lie beyond the read
// horizon, where the link table once kept such copies until a sweep. They
// cost no allocation and change nothing the recorder reports.
func TestStaleCopiesLeaveNoState(t *testing.T) {
	const steps, perStep, far = 4096, 8, 1 << 40
	plain, stale := newPacketCycle(512), newPacketCycle(512)
	var dead pkt.Packet
	n := uint64(0)
	dropInQueue := func(k int) {
		for ; k > 0; k-- {
			dead = pkt.Packet{Seq: far + n*cycleSeg, PayloadLen: cycleSeg, EnqueuedAt: stale.now}
			stale.r.onLinkEnqueue(&dead, stale.now, true)
			dead = pkt.Packet{}
			n++
		}
	}
	// One measured run of 8192 copies, after as many unmeasured: a table
	// keyed by copy would have grown through both.
	if a := testing.AllocsPerRun(1, func() { dropInQueue(8192) }); a != 0 {
		t.Fatalf("8192 copies dropped in the queue allocated %v times, want 0", a)
	}
	for i := 0; i < steps; i++ {
		plain.step()
		stale.step()
		dropInQueue(perStep)
	}
	if g, w := stale.r.Breakdown(), plain.r.Breakdown(); g != w {
		t.Fatalf("%d copies dropped in the queue moved the breakdown:\n%+v\nwithout them\n%+v", n, g, w)
	}
	if len(stale.r.Drops()) != 0 {
		t.Fatalf("%d drop markers for in-queue drops the tap cannot see", len(stale.r.Drops()))
	}
}

// TestInflightQueuesTrackWindow: the recorder's three head-indexed queues
// are sized by what is in flight, not by a fixed slack. 20 000 in-order
// segments pass with the reader holding 8 received and unread, and no
// queue's capacity ever exceeds 32 — compaction drops a consumed prefix
// as soon as it is half the queue, however short. A tapped recorder sees
// every hook and attributes every range; a truth-only recorder (NewTruth)
// sees only its four, takes every truth sample and attributes nothing.
func TestInflightQueuesTrackWindow(t *testing.T) {
	const segs, inflight, maxCap = 20000, 8, 32
	for _, truth := range []bool{false, true} {
		var now units.Time
		clock := func() units.Time { return now }
		var tr Truth
		r := NewTruth(clock)
		r.RecordTruth(&tr)
		if !truth {
			wf := New()
			wf.SetClock(clock)
			r = wf.NewFlow()
		}
		var p pkt.Packet
		for i := uint64(0); i < segs; i++ {
			now = now.Add(100 * units.Microsecond)
			r.onAppWrite((i+1)*cycleSeg, cycleSeg)
			r.onTransmit(i*cycleSeg, cycleSeg, false)
			if !truth {
				p = pkt.Packet{Seq: i * cycleSeg, PayloadLen: cycleSeg, EnqueuedAt: now}
				r.onLinkEnqueue(&p, now, true)
				r.onLinkDequeue(&p, now)
				r.onPacketRecv(&p)
			}
			r.onTCPReceive(i*cycleSeg, cycleSeg)
			if !truth {
				r.onInOrder((i + 1) * cycleSeg)
			}
			if i >= inflight {
				r.onAppRead((i-inflight+1)*cycleSeg, cycleSeg)
			}
			for name, n := range map[string]int{"writes": cap(r.writes), "segs": cap(r.segs), "arrivals": cap(r.arrivals)} {
				if n > maxCap {
					t.Fatalf("truth %v, segment %d: %s has capacity %d with %d segments in flight, want at most %d", truth, i, name, n, inflight, maxCap)
				}
			}
		}
		if !truth {
			if got := r.agg.ranges; got != segs-inflight {
				t.Fatalf("%d ranges finalized, want %d", got, segs-inflight)
			}
			continue
		}
		if b := r.Breakdown(); b != (Breakdown{}) {
			t.Fatalf("a truth-only recorder attributed %+v, want nothing", b)
		}
		if tr.Sender.Len() != segs || tr.Network.Len() != segs || tr.Receiver.Len() != segs-inflight {
			t.Fatalf("truth samples %d/%d/%d, want %d/%d/%d",
				tr.Sender.Len(), tr.Network.Len(), tr.Receiver.Len(), segs, segs, segs-inflight)
		}
	}
}
