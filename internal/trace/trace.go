// Package trace is the simulator's analogue of the paper's instrumented
// perf kernel profiler (§4.3): it observes the four decomposition points of
// Figure 1/5 — application write, TCP transmit (tcp_transmit_skb), TCP
// receive (tcp_v4_do_rcv), application read — with exact per-byte
// timestamps, and derives the ground-truth sender-side, network, and
// receiver-side delays that ELEMENT's user-level estimates are judged
// against.
package trace

import (
	"sort"

	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/units"
)

// Sample and Series alias the shared statistics types so ground truth and
// ELEMENT's estimates compare directly.
type Sample = stats.Sample

// Series is an ordered collection of samples.
type Series = stats.Series

// rangeStamp is a byte range with the time it passed an observation point.
type rangeStamp struct {
	start, end uint64
	at         units.Time
}

// Collector accumulates ground truth for one connection. Create it with
// New and pass Hooks() into the connection's ConnConfig.
type Collector struct {
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

	// The three result series: append-only delta varints, read after (or
	// between) runs through the decoding accessors below, or packed.
	senderDelay   stats.Log[Sample]
	networkDelay  stats.Log[Sample]
	receiverDelay stats.Log[Sample]
}

// New returns an empty collector bound to eng.
func New(eng *sim.Engine) *Collector { return &Collector{eng: eng} }

// SenderHooks returns the trace hooks for the sending socket.
func (c *Collector) SenderHooks() stack.TraceHooks {
	return stack.TraceHooks{
		AppWrite:    c.onAppWrite,
		TCPTransmit: c.onTCPTransmit,
	}
}

// ReceiverHooks returns the trace hooks for the receiving socket.
func (c *Collector) ReceiverHooks() stack.TraceHooks {
	return stack.TraceHooks{
		TCPReceive: c.onTCPReceive,
		AppRead:    c.onAppRead,
	}
}

// onAppWrite records that the app stream now extends to endSeq.
func (c *Collector) onAppWrite(endSeq uint64, n int) {
	c.writes = append(c.writes, rangeStamp{end: endSeq, at: c.eng.Now()})
}

// onTCPTransmit matches a first transmission against the write records.
// Retransmissions update the network-delay bookkeeping but do not produce
// sender-delay samples (the bytes left the socket buffer at first
// transmission, like tcp_transmit_skb tracing does).
func (c *Collector) onTCPTransmit(seq uint64, n int, retx bool) {
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
			c.senderDelay.Append(Sample{At: now, Delay: now.Sub(w.at), Bytes: n})
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
func (c *Collector) recordTransmit(r rangeStamp) {
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
func (c *Collector) onTCPReceive(seq uint64, n int) {
	now := c.eng.Now()
	end := seq + uint64(n)
	// Find the covering transmission: greatest start <= seq.
	live := c.transmits[c.txHead:]
	if i := sort.Search(len(live), func(i int) bool { return live[i].start > seq }); i > 0 {
		tx := live[i-1]
		c.networkDelay.Append(Sample{At: now, Delay: now.Sub(tx.at), Bytes: n})
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
func (c *Collector) insertReceive(r rangeStamp) {
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
func (c *Collector) trimTransmits() {
	for c.txHead < len(c.transmits) && c.transmits[c.txHead].end <= c.readCum {
		c.txHead++
	}
	c.transmits, c.txHead = compact(c.transmits, c.txHead)
}

// onAppRead matches consumed bytes against receive stamps.
func (c *Collector) onAppRead(endSeq uint64, n int) {
	now := c.eng.Now()
	c.readCum = endSeq
	for c.recvHead < len(c.receives) && c.receives[c.recvHead].start < endSeq {
		r := c.receives[c.recvHead]
		if r.end <= endSeq {
			c.receiverDelay.Append(Sample{
				At: now, Delay: now.Sub(r.at), Bytes: int(r.end - r.start),
			})
			c.recvHead++
			continue
		}
		// Partially read range: split it.
		c.receiverDelay.Append(Sample{
			At: now, Delay: now.Sub(r.at), Bytes: int(endSeq - r.start),
		})
		c.receives[c.recvHead].start = endSeq
		break
	}
	c.receives, c.recvHead = compact(c.receives, c.recvHead)
	c.trimTransmits()
}

// SenderDelay reports the ground-truth sender-side (socket buffer) delays.
//
// The three accessors decode their series into a fresh slice on every
// call.
func (c *Collector) SenderDelay() Series { return c.senderDelay.Collect() }

// SenderLog and ReceiverLog are the sender- and receiver-side series as
// they are packed, for a reader that decodes them a block at a time
// (core.CheckSenderLog) instead of whole.
func (c *Collector) SenderLog() *stats.Log[Sample] { return &c.senderDelay }

// ReceiverLog: see SenderLog.
func (c *Collector) ReceiverLog() *stats.Log[Sample] { return &c.receiverDelay }

// NetworkDelay reports the ground-truth one-way network delays.
func (c *Collector) NetworkDelay() Series { return c.networkDelay.Collect() }

// ReceiverDelay reports the ground-truth receiver-side delays.
func (c *Collector) ReceiverDelay() Series { return c.receiverDelay.Collect() }
