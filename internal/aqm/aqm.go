// Package aqm implements the queueing disciplines evaluated by the paper:
// a FIFO tail-drop queue standing in for Linux's pfifo_fast, CoDel
// (RFC 8289), FQ-CoDel (RFC 8290), and PIE (RFC 8033). Each discipline can
// optionally mark ECN-capable packets (set CE) instead of dropping them.
//
// Disciplines are passive data structures driven by the owning link: the
// link calls Enqueue when a packet arrives at the queue and Dequeue when the
// transmitter is ready for the next packet, passing the current virtual
// time. All AQM state updates are done lazily from those two entry points,
// which keeps the disciplines engine-agnostic and deterministic.
package aqm

import (
	"element/internal/pkt"
	"element/internal/units"
)

// Discipline is a queueing discipline instance for a single link direction.
type Discipline interface {
	// Enqueue offers a packet to the queue at virtual time now. It reports
	// false if the packet was dropped (tail drop or AQM drop); the packet
	// is then still the caller's, to release. Accepted, the queue holds it
	// until Dequeue hands it on.
	Enqueue(p *pkt.Packet, now units.Time) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty. AQMs may drop packets internally before
	// returning one; a packet dropped from inside the queue is released
	// by the discipline (dropQueued).
	Dequeue(now units.Time) *pkt.Packet
	// Len reports the number of queued packets.
	Len() int
	// Bytes reports the number of queued bytes (wire sizes).
	Bytes() int
	// Stats reports cumulative counters for the discipline.
	Stats() Stats
	// Name reports the discipline's name for reports ("pfifo_fast", ...).
	Name() string
}

// Stats are cumulative per-discipline counters.
type Stats struct {
	Enqueued  int // packets accepted
	Dequeued  int // packets handed to the link
	TailDrops int // drops because the queue was full
	AQMDrops  int // drops decided by the AQM law
	ECNMarks  int // packets CE-marked instead of dropped
}

// Config holds the knobs shared by all disciplines.
type Config struct {
	// LimitPackets caps the queue length in packets (tail drop beyond it).
	// Zero means the discipline default.
	LimitPackets int
	// ECN makes the discipline CE-mark ECN-capable packets instead of
	// AQM-dropping them (tail drops still drop).
	ECN bool
}

// dropOrMark applies an AQM "drop" decision to p honoring ECN: if ECN is
// enabled and the packet is ECN-capable it is marked and kept. It reports
// true if the packet was (or would be) dropped, false if it was marked.
// It only decides: PIE calls it on the enqueue path, where a drop is the
// link's to release, so the in-queue callers follow it with dropQueued.
func dropOrMark(cfg Config, st *Stats, p *pkt.Packet) bool {
	if cfg.ECN && p.ECT {
		p.CE = true
		st.ECNMarks++
		return false
	}
	st.AQMDrops++
	return true
}

// dropQueued ends the life of a packet the discipline had accepted and now
// drops from inside the queue: CoDel's and FQ-CoDel's drops at dequeue and
// FQ-CoDel's overflow drop from the longest flow. Nobody else will see p
// again, so the discipline releases it here.
func dropQueued(p *pkt.Packet) { p.Release() }

// fifoRing is a slice-backed FIFO of packets shared by the disciplines.
type fifoRing struct {
	items []*pkt.Packet
	head  int
	bytes int
}

func (q *fifoRing) push(p *pkt.Packet) {
	q.items = append(q.items, p)
	q.bytes += p.Size()
}

func (q *fifoRing) pop() *pkt.Packet {
	if q.head >= len(q.items) {
		return nil
	}
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.bytes -= p.Size()
	// Reclaim space once the dead prefix dominates.
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}

func (q *fifoRing) len() int { return len(q.items) - q.head }
