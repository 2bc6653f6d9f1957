package trace

import (
	"math/rand"
	"sort"
	"testing"

	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
	"element/internal/waterfall"
)

// rangeStamp is a byte range with the time it passed an observation point.
type rangeStamp struct {
	start, end uint64
	at         units.Time
}

// refCollector is the ground-truth collector as it stood before the
// waterfall recorder took over its stamps: its own write FIFO, a
// first-transmission index searched by start, and a receive list kept in
// stable-sort order. It is the oracle FuzzTruthMatchesCollector holds
// Collector to, and its bookkeeping is what the tests of it below pin.
type refCollector struct {
	eng *sim.Engine

	// Sender side: cumulative write records and transmission stamps.
	writes    []rangeStamp // app writes, contiguous, FIFO
	writeHead int
	transmits []rangeStamp // first transmissions, by start seq; live from txHead
	txHead    int

	// Receiver side: receive stamps awaiting app reads.
	receives []rangeStamp // sorted by start, disjoint; live from recvHead
	recvHead int
	readCum  uint64

	senderDelay, networkDelay, receiverDelay Series
}

func newRef(eng *sim.Engine) *refCollector { return &refCollector{eng: eng} }

// onAppWrite records that the app stream now extends to endSeq.
func (c *refCollector) onAppWrite(endSeq uint64, n int) {
	c.writes = append(c.writes, rangeStamp{end: endSeq, at: c.eng.Now()})
}

// onTCPTransmit matches a first transmission against the write records.
// Retransmissions update the network-delay bookkeeping but do not produce
// sender-delay samples (the bytes left the socket buffer at first
// transmission, like tcp_transmit_skb tracing does).
func (c *refCollector) onTCPTransmit(seq uint64, n int, retx bool) {
	now := c.eng.Now()
	end := seq + uint64(n)
	c.recordTransmit(rangeStamp{start: seq, end: end, at: now})
	if retx {
		return
	}
	// Sender delay: time since the write call that produced the segment's
	// last byte (the paper matches the closest record not exceeding the
	// TCP-layer byte count; at ground-truth precision the covering write is
	// exact).
	for c.writeHead < len(c.writes) {
		w := c.writes[c.writeHead]
		if w.end >= end {
			c.senderDelay = append(c.senderDelay, Sample{At: now, Delay: now.Sub(w.at), Bytes: n})
			break
		}
		c.writeHead++
	}
	c.writes, c.writeHead = compact(c.writes, c.writeHead)
}

// compact drops the consumed prefix s[:head] once it is at least half of
// s, keeping the backing array: the rule waterfall.Recorder's queues
// follow too. Each live stamp is copied at most once per stamp consumed
// before it, and s stays within about twice its live stamps, so its
// capacity follows the window.
func compact(s []rangeStamp, head int) ([]rangeStamp, int) {
	if head > 0 && head*2 >= len(s) {
		return s[:copy(s, s[head:])], 0
	}
	return s, head
}

// recordTransmit keeps the FIRST transmission time per byte range. The
// paper measures network delay from the segment's first tcp_transmit_skb,
// so for a segment lost and retransmitted (after an RTO, say) the recovery
// wait counts as network delay rather than disappearing from the
// decomposition; the waterfall attribution splits the same interval into
// its retx and queue/wire stages. A stamp is kept only while an arrival
// can still need it: new bytes arrive at or above rcv_nxt, which is never
// below what the app has read, so a range that ends at or below the read
// horizon — a spurious retransmission of read data — is not stamped, and
// trimTransmits forgets the stamps the reads overtake.
func (c *refCollector) recordTransmit(r rangeStamp) {
	if r.end <= c.readCum {
		return
	}
	live := c.transmits[c.txHead:]
	i := c.txHead + sort.Search(len(live), func(i int) bool { return live[i].start >= r.start })
	if i < len(c.transmits) && c.transmits[i].start == r.start {
		return // retransmission: the first transmission's stamp stands
	}
	c.transmits = append(c.transmits, rangeStamp{})
	copy(c.transmits[i+1:], c.transmits[i:])
	c.transmits[i] = r
}

// onTCPReceive records arrival of new bytes and emits the network-delay
// sample measured from the first transmission of the covering segment.
func (c *refCollector) onTCPReceive(seq uint64, n int) {
	now := c.eng.Now()
	end := seq + uint64(n)
	// Find the covering transmission: greatest start <= seq.
	live := c.transmits[c.txHead:]
	if i := sort.Search(len(live), func(i int) bool { return live[i].start > seq }); i > 0 {
		tx := live[i-1]
		c.networkDelay = append(c.networkDelay, Sample{At: now, Delay: now.Sub(tx.at), Bytes: n})
	}
	// Stash for the receiver-delay match at app-read time.
	c.insertReceive(rangeStamp{start: seq, end: end, at: now})
}

// insertReceive keeps receives sorted by start without re-sorting: a stamp
// goes after every stamp that does not start later, which for the in-order
// common case is a plain append. Only the head can be out of place before
// that — a partial read advanced its start, past a duplicate stamp that
// overlaps it — and it is moved back first, so the list is always what a
// stable sort after every append would give. Filling a hole is a binary
// search and one copy of the shorter side: the stamps behind the slot move
// up, or — when the slot is nearer the head, where a retransmission lands,
// and reads have left slack before it — the stamps ahead of it move down.
func (c *refCollector) insertReceive(r rangeStamp) {
	head, n := c.recvHead, len(c.receives)
	if head+1 < n && c.receives[head+1].start < c.receives[head].start {
		h := c.receives[head]
		rest := c.receives[head+1:]
		k := sort.Search(len(rest), func(i int) bool { return rest[i].start >= h.start })
		copy(c.receives[head:], rest[:k])
		c.receives[head+k] = h
	}
	if n == head || c.receives[n-1].start <= r.start {
		c.receives = append(c.receives, r)
		return
	}
	live := c.receives[head:]
	i := head + sort.Search(len(live), func(i int) bool { return live[i].start > r.start })
	if head > 0 && i-head < n-i {
		copy(c.receives[head-1:], c.receives[head:i])
		c.receives[i-1] = r
		c.recvHead--
		return
	}
	c.receives = append(c.receives, rangeStamp{})
	copy(c.receives[i+1:], c.receives[i:])
	c.receives[i] = r
}

// trimTransmits forgets the transmit stamps the read horizon has
// overtaken: those ending at or below readCum, from the head on. Every
// byte that can still arrive as new lies at or above rcv_nxt ≥ readCum,
// so no later arrival can need them — unlike the first unread receive,
// which may be out-of-order data above a hole whose first-transmission
// stamp the retransmission filling it still needs.
func (c *refCollector) trimTransmits() {
	for c.txHead < len(c.transmits) && c.transmits[c.txHead].end <= c.readCum {
		c.txHead++
	}
	c.transmits, c.txHead = compact(c.transmits, c.txHead)
}

// onAppRead matches consumed bytes against receive stamps.
func (c *refCollector) onAppRead(endSeq uint64, n int) {
	now := c.eng.Now()
	c.readCum = endSeq
	for c.recvHead < len(c.receives) && c.receives[c.recvHead].start < endSeq {
		r := c.receives[c.recvHead]
		if r.end <= endSeq {
			c.receiverDelay = append(c.receiverDelay, Sample{
				At: now, Delay: now.Sub(r.at), Bytes: int(r.end - r.start),
			})
			c.recvHead++
			continue
		}
		// Partially read range: split it.
		c.receiverDelay = append(c.receiverDelay, Sample{
			At: now, Delay: now.Sub(r.at), Bytes: int(endSeq - r.start),
		})
		c.receives[c.recvHead].start = endSeq
		break
	}
	c.receives, c.recvHead = compact(c.receives, c.recvHead)
	c.trimTransmits()
}

// withRef returns hooks that drive the four stamps of each of cs and of
// ref, the collectors first.
func withRef(ref *refCollector, cs ...*Collector) (snd, rcv stack.TraceHooks) {
	snd = stack.TraceHooks{
		AppWrite: func(end uint64, n int) {
			for _, c := range cs {
				c.snd.AppWrite(end, n)
			}
			ref.onAppWrite(end, n)
		},
		TCPTransmit: func(seq uint64, n int, retx bool) {
			for _, c := range cs {
				c.snd.TCPTransmit(seq, n, retx)
			}
			ref.onTCPTransmit(seq, n, retx)
		},
	}
	rcv = stack.TraceHooks{
		TCPReceive: func(seq uint64, n int) {
			for _, c := range cs {
				c.rcv.TCPReceive(seq, n)
			}
			ref.onTCPReceive(seq, n)
		},
		AppRead: func(end uint64, n int) {
			for _, c := range cs {
				c.rcv.AppRead(end, n)
			}
			ref.onAppRead(end, n)
		},
	}
	return snd, rcv
}

// matchRef fails unless c's three series are the reference's, sample for
// sample; name labels c in the failure.
func matchRef(t testing.TB, name string, c *Collector, ref *refCollector) {
	t.Helper()
	for _, s := range []struct {
		name      string
		got, want Series
	}{
		{"sender", c.SenderDelay(), ref.senderDelay},
		{"network", c.NetworkDelay(), ref.networkDelay},
		{"receiver", c.ReceiverDelay(), ref.receiverDelay},
	} {
		if len(s.got) != len(s.want) {
			t.Fatalf("%s %s: %d samples, reference %d", name, s.name, len(s.got), len(s.want))
		}
		for i := range s.got {
			if s.got[i] != s.want[i] {
				t.Fatalf("%s %s[%d] = %+v, reference %+v", name, s.name, i, s.got[i], s.want[i])
			}
		}
	}
}

// byteChooser draws a schedule's decisions from a fuzz input, two bytes
// each, and answers 0 once it runs out — which done reports.
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

// truthSchedule feeds snd and rcv a hook sequence a TCP stack can
// produce, drawn from src: app writes; first transmissions in sequence
// order of what was written; retransmissions of a sent segment, at its
// first start and length; receives of new bytes only, in any segment
// order — a segment whole, or its tail before its head — so holes open
// and fill, inside a segment too; and reads, partial or whole, of the
// in-order prefix. It ends, when src runs out, by delivering everything
// and reading the stream.
func truthSchedule(src *byteChooser, eng *sim.Engine, snd, rcv stack.TraceHooks) {
	type seg struct {
		start, end uint64
		split      uint64 // > start once the tail [split, end) arrived alone
		whole      bool   // every byte arrived
	}
	var (
		written, txEnd, readCum uint64
		segs                    []seg
		inOrder                 int // segs[:inOrder] arrived whole
	)
	deliver := func(i int) {
		s := &segs[i]
		switch {
		case s.split > s.start: // the head fills the hole below the tail
			rcv.TCPReceive(s.start, int(s.split-s.start))
			s.whole = true
		case s.end-s.start > 1 && src.Intn(3) == 0:
			s.split = s.start + 1 + uint64(src.Intn(int(s.end-s.start-1)))
			rcv.TCPReceive(s.split, int(s.end-s.split))
		default:
			rcv.TCPReceive(s.start, int(s.end-s.start))
			s.whole = true
		}
		for inOrder < len(segs) && segs[inOrder].whole {
			inOrder++
		}
	}
	rcvNxt := func() uint64 {
		if inOrder == 0 {
			return 0
		}
		return segs[inOrder-1].end
	}
	for !src.done() {
		eng.RunFor(units.Duration(src.Intn(2_000_001))) // 0..2ms
		switch action := src.Intn(10); {
		case action < 2: // app write
			n := 1 + src.Intn(3000)
			written += uint64(n)
			snd.AppWrite(written, n)
		case action < 4: // first transmission
			if txEnd >= written {
				continue
			}
			n := uint64(1 + src.Intn(1448))
			n = min(n, written-txEnd)
			snd.TCPTransmit(txEnd, int(n), false)
			segs = append(segs, seg{start: txEnd, end: txEnd + n})
			txEnd += n
		case action < 5: // retransmission
			if len(segs) == 0 {
				continue
			}
			s := segs[src.Intn(len(segs))]
			snd.TCPTransmit(s.start, int(s.end-s.start), true)
		case action < 8: // arrival of new bytes
			if inOrder == len(segs) {
				continue
			}
			i := inOrder + src.Intn(len(segs)-inOrder)
			if !segs[i].whole {
				deliver(i)
			}
		default: // app read
			if next := rcvNxt(); next > readCum {
				n := 1 + uint64(src.Intn(int(next-readCum)))
				readCum += n
				rcv.AppRead(readCum, int(n))
			}
		}
	}
	eng.RunFor(units.Millisecond)
	for i := range segs {
		for !segs[i].whole {
			deliver(i)
		}
	}
	if next := rcvNxt(); next > readCum {
		rcv.AppRead(next, int(next-readCum))
	}
}

// matchStageSets feeds the schedule data draws to a truth-only collector
// (New), to one over a full waterfall's recorder (Of) and to the
// reference, and fails unless all three series of both collectors are
// the reference's. It returns the truth-only collector.
func matchStageSets(t testing.TB, data []byte) *Collector {
	t.Helper()
	eng := sim.New(1)
	wf := waterfall.New()
	wf.SetClock(eng.Now)
	c, full, ref := New(eng), Of(wf.NewFlow()), newRef(eng)
	snd, rcv := withRef(ref, c, full)
	truthSchedule(&byteChooser{data: data}, eng, snd, rcv)
	matchRef(t, "truth-only", c, ref)
	matchRef(t, "full", full, ref)
	return c
}

// FuzzTruthMatchesCollector holds Collector — the waterfall recorder's
// stamps, truth-only and with every stage installed — to the reference
// collector, sample for sample in all three series, under
// truthSchedule's hook sequences.
func FuzzTruthMatchesCollector(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			t.Skip()
		}
		matchStageSets(t, data)
	})
}

// TestTruthMatchesCollector is FuzzTruthMatchesCollector over seeded
// schedules, each long enough to open and fill holes many times.
func TestTruthMatchesCollector(t *testing.T) {
	holes := 0
	for seed := int64(1); seed <= 64; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		c := matchStageSets(t, data)
		if c.SenderLog().Len() == 0 || c.ReceiverLog().Len() == 0 {
			t.Fatalf("seed %d: %d sender and %d receiver samples", seed, c.SenderLog().Len(), c.ReceiverLog().Len())
		}
		for _, s := range c.ReceiverDelay() {
			if s.Delay > 0 {
				holes++
				break
			}
		}
	}
	if holes == 0 {
		t.Fatal("no schedule kept a byte waiting to be read; the test does not cover it")
	}
}
