package aqm

import (
	"element/internal/pkt"
	"element/internal/units"
)

// TapHooks observe a queueing discipline packet by packet. Unlike the
// telemetry instrumentation (counters and histograms), a tap sees the
// packets themselves, which is what per-byte-range attribution needs: the
// waterfall subsystem uses Enqueued/Dequeued to time each segment's queue
// residency. All hooks are optional. A hook borrows the packet: p is valid
// only during the call (a rejected packet is released right after
// Enqueued returns), so a tap copies the fields it keeps. The one write a
// tap may make is to its own stamps on the packet (pkt.Packet.Tapped and
// DequeuedAt), which travel with the copy and are reset by Release.
//
// What a tap does not see: a packet the discipline accepts and later
// drops from inside the queue — CoDel's and FQ-CoDel's drops at dequeue
// (PIE drops on enqueue, and is seen) — raises no event. It was Enqueued
// with accepted true and is never Dequeued; only the discipline's own
// drop counter records it, and dropQueued releases it with whatever the
// tap stamped on it. A tap that kept per-copy state of its own, keyed by
// copy, would hold every such copy until something evicted it.
type TapHooks struct {
	// Enqueued fires after every Enqueue attempt; accepted reports whether
	// the discipline took the packet (false = a rejection at the queue's
	// front door: the limit reached, or an AQM that drops on enqueue).
	Enqueued func(p *pkt.Packet, now units.Time, accepted bool)
	// Dequeued fires for every packet the discipline hands to the
	// transmitter — not for one it drops while choosing that packet.
	Dequeued func(p *pkt.Packet, now units.Time)
}

// tapped wraps a Discipline with per-packet observation hooks. Like
// Instrument, wrapping keeps the disciplines themselves observation-free
// and costs nothing when no tap is attached.
type tapped struct {
	d Discipline
	h TapHooks
}

// AttachTap wraps d so that t observes every enqueue/dequeue. Hooks that
// are nil are skipped; an entirely empty tap returns d unchanged.
func AttachTap(d Discipline, t TapHooks) Discipline {
	if t.Enqueued == nil && t.Dequeued == nil {
		return d
	}
	return &tapped{d: d, h: t}
}

// Enqueue implements Discipline.
func (t *tapped) Enqueue(p *pkt.Packet, now units.Time) bool {
	ok := t.d.Enqueue(p, now)
	if t.h.Enqueued != nil {
		t.h.Enqueued(p, now, ok)
	}
	return ok
}

// Dequeue implements Discipline.
func (t *tapped) Dequeue(now units.Time) *pkt.Packet {
	p := t.d.Dequeue(now)
	if p != nil && t.h.Dequeued != nil {
		t.h.Dequeued(p, now)
	}
	return p
}

// Len implements Discipline.
func (t *tapped) Len() int { return t.d.Len() }

// Bytes implements Discipline.
func (t *tapped) Bytes() int { return t.d.Bytes() }

// Stats implements Discipline.
func (t *tapped) Stats() Stats { return t.d.Stats() }

// Name implements Discipline.
func (t *tapped) Name() string { return t.d.Name() }
