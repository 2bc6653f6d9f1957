package waterfall

import (
	"fmt"
	"testing"

	"element/internal/pkt"
	"element/internal/units"
)

// packetCycle drives one recorder in steady state, one data packet per
// step, through everything a tapped flow's packet meets: app write,
// transmit, link enqueue; then — linkDepth packets later — dequeue, packet
// receive, TCP receive, in-order release; then — window packets later
// still — the app read that finalizes it. So the link table holds
// linkDepth live copies, and the segment records and the arrival queue
// hold window ranges each. It uses only the hook surface, so the same
// driver measures the commit before the tables were replaced.
//
// linkDepth stays fixed while window varies because the link table has a
// second regime this does not measure: at maxMarks (4096) copies
// sweepLinks walks the whole table on every enqueue, before and after.
type packetCycle struct {
	r      *Recorder
	now    units.Time
	window int
	next   uint64 // packets started
	p      pkt.Packet
}

const (
	cycleLinkDepth = 64
	cycleSeg       = 1448
)

// newPacketCycle returns a cycle warmed past every slice's growth, with
// stale copies left in the link table the way dequeue-time drops leave
// them: enqueued, never named again, and — their bytes lying beyond the
// read horizon — not yet sweepable.
func newPacketCycle(window, stale int) *packetCycle {
	c := &packetCycle{window: window}
	wf := New()
	wf.SetClock(func() units.Time { return c.now })
	c.r = wf.NewFlow()
	const far = 1 << 40
	for i := 0; i < stale; i++ {
		c.p = pkt.Packet{Seq: far + uint64(i)*cycleSeg, PayloadLen: cycleSeg}
		c.r.onLinkEnqueue(&c.p, c.now, true)
	}
	for i := 0; i < 4*(window+cycleLinkDepth)+1024; i++ {
		c.step()
	}
	return c
}

func (c *packetCycle) packet(i uint64) *pkt.Packet {
	c.p = pkt.Packet{Seq: i * cycleSeg, PayloadLen: cycleSeg}
	return &c.p
}

func (c *packetCycle) step() {
	r, i := c.r, c.next
	c.next++
	c.now = c.now.Add(100 * units.Microsecond)
	r.onAppWrite((i+1)*cycleSeg, cycleSeg)
	r.onTransmit(i*cycleSeg, cycleSeg, false)
	r.onLinkEnqueue(c.packet(i), c.now, true)
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
// against the two sizes it must not depend on: the in-flight window, and
// the number of stale copies waiting in the link table for the sweep. One
// step in 512 takes the retained-range log's next chunk; newPacketCycle's
// warm-up stops mid-chunk at all three windows, so the single step the gate
// times at -benchtime 1x reads 0 allocs/op.
func BenchmarkRecorderPacket(b *testing.B) {
	for _, window := range []int{64, 512, 4096} {
		for _, stale := range []int{0, 4000} {
			b.Run(fmt.Sprintf("window=%d/stale=%d", window, stale), func(b *testing.B) {
				c := newPacketCycle(window, stale)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.step()
				}
			})
		}
	}
}

// TestPacketCycleAllocs pins what a packet costs in allocations at a
// warmed 512-packet window with stale copies present. Over 8192 packets
// the commit before the tables were replaced (5bea3a9) allocated 23 or 24
// times under this same driver — the arrival queue re-grown each time
// arrivals[1:] had given its capacity away, and the retained-range slice
// growing. Now the retained-range log alone allocates, one chunk per 512
// ranges: 16 exactly, so none comes from the link table or the arrival
// queue, whose capacity is also checked directly. AllocsPerRun truncates
// its average, so over four runs a stray runtime allocation (one in eight
// -race runs at PR 22) is not counted as a 17th.
func TestPacketCycleAllocs(t *testing.T) {
	const packets, rangesPerChunk = 8192, 512
	c := newPacketCycle(512, 1000)
	arrCap, links := cap(c.r.arrivals), len(c.r.links)
	total := testing.AllocsPerRun(4, func() {
		for i := 0; i < packets; i++ {
			c.step()
		}
	})
	if total > packets/rangesPerChunk {
		t.Fatalf("%d packets allocated %.0f times, want at most %d (one chunk per %d retained ranges)",
			packets, total, packets/rangesPerChunk, rangesPerChunk)
	}
	if cap(c.r.arrivals) != arrCap || len(c.r.links) != links {
		t.Fatalf("steady state moved: arrival queue capacity %d -> %d, link table %d -> %d copies",
			arrCap, cap(c.r.arrivals), links, len(c.r.links))
	}
}
