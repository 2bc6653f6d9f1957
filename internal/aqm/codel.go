package aqm

import (
	"math"

	"element/internal/pkt"
	"element/internal/units"
)

// CoDel parameters from RFC 8289.
const (
	// CoDelTarget is the acceptable standing queue delay.
	CoDelTarget = 5 * units.Millisecond
	// CoDelInterval is the sliding window over which the minimum sojourn
	// time must exceed the target before dropping starts.
	CoDelInterval = 100 * units.Millisecond
)

// codelState is the control-law state shared by CoDel and each FQ-CoDel
// sub-queue.
// The zero value is ready to use.
type codelState struct {
	firstAboveTime units.Time // when sojourn first went above target; 0 = below
	dropNext       units.Time // next drop time while dropping
	count          int        // drops since entering drop state
	lastCount      int        // count when leaving drop state
	dropping       bool
}

// controlLaw spaces successive drops by interval/sqrt(count).
func (c *codelState) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(CoDelInterval) / math.Sqrt(float64(c.count))))
}

// shouldDrop runs the RFC 8289 dequeue-side law for a packet with the given
// sojourn time and reports whether the packet should be dropped (or marked).
func (c *codelState) shouldDrop(sojourn units.Duration, now units.Time, qBytes int, mtu int) bool {
	okToDrop := false
	if sojourn < CoDelTarget || qBytes <= mtu {
		c.firstAboveTime = 0
	} else {
		if c.firstAboveTime == 0 {
			c.firstAboveTime = now.Add(CoDelInterval)
		} else if now >= c.firstAboveTime {
			okToDrop = true
		}
	}

	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return false
		}
		if now >= c.dropNext {
			c.count++
			c.dropNext = c.controlLaw(c.dropNext)
			return true
		}
		return false
	}
	if okToDrop {
		c.dropping = true
		// Resume at a higher drop rate if we were dropping recently
		// (within one interval), per the RFC.
		delta := c.count - c.lastCount
		c.count = 1
		if delta > 1 && now.Sub(c.dropNext) < 16*CoDelInterval {
			c.count = delta
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
		return true
	}
	return false
}

// CoDel is the Controlled Delay AQM of RFC 8289 over a single FIFO.
type CoDel struct {
	cfg   Config
	q     fifoRing
	st    codelState
	stats Stats
	mtu   int
}

// NewCoDel returns a CoDel queue with RFC-default parameters.
func NewCoDel(cfg Config) *CoDel {
	if cfg.LimitPackets == 0 {
		cfg.LimitPackets = DefaultFIFOLimit
	}
	return &CoDel{cfg: cfg, mtu: 1514}
}

// Enqueue implements Discipline.
func (c *CoDel) Enqueue(p *pkt.Packet, now units.Time) bool {
	if c.q.len() >= c.cfg.LimitPackets {
		c.stats.TailDrops++
		return false
	}
	p.EnqueuedAt = now
	c.q.push(p)
	c.stats.Enqueued++
	return true
}

// Dequeue implements Discipline. It applies the CoDel drop law, discarding
// (or ECN-marking) packets whose sojourn time has stayed above target for a
// full interval.
func (c *CoDel) Dequeue(now units.Time) *pkt.Packet {
	for {
		p := c.q.pop()
		if p == nil {
			c.st.dropping = false
			return nil
		}
		sojourn := now.Sub(p.EnqueuedAt)
		if c.st.shouldDrop(sojourn, now, c.q.bytes, c.mtu) {
			if !dropOrMark(c.cfg, &c.stats, p) {
				// Marked instead of dropped: deliver it.
				c.stats.Dequeued++
				return p
			}
			dropQueued(p)
			continue // try the next packet
		}
		c.stats.Dequeued++
		return p
	}
}

// Len implements Discipline.
func (c *CoDel) Len() int { return c.q.len() }

// Bytes implements Discipline.
func (c *CoDel) Bytes() int { return c.q.bytes }

// Stats implements Discipline.
func (c *CoDel) Stats() Stats { return c.stats }

// Name implements Discipline.
func (c *CoDel) Name() string { return "codel" }
