package pkt

import "element/internal/units"

// poisonTime is the stamp the pktpoison build leaves on a released packet.
const poisonTime = units.Time(1<<63 - 1)

// Pool is a free list of packets for one single-threaded domain — one
// sim.Engine. It is LIFO and plain memory (never sync.Pool: reuse order
// must depend on the seed alone), so Get and Release cost a slice pop and
// push and a steady-state run allocates no packet.
//
// A nil *Pool is valid: Get returns a heap packet that Release ignores,
// which is what a packet built with a literal is too.
type Pool struct {
	free        []*Packet
	outstanding int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet owned by the caller.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.outstanding++
	n := len(pl.free)
	if n == 0 {
		return &Packet{pool: pl}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	p.released = false
	return p
}

// Outstanding reports gets minus releases: the packets currently owned by
// someone. Tests hold it to zero once a run is dry.
func (pl *Pool) Outstanding() int { return pl.outstanding }

// Release ends the owner's use of p and returns it to its pool, reset, so
// a parked packet pins no Payload. On a packet that came from a literal or
// a nil pool it does nothing — the GC owns those. Releasing twice is a bug
// in the caller and panics.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.released {
		panic("pkt: packet released twice")
	}
	pl.outstanding--
	*p = Packet{pool: pl, released: true}
	if poison {
		// Wrong for ever: nothing recycles p, so whoever still reads it
		// reads these. A stamp read after release is a time past any run's
		// end, which the waterfall's monotone clamp carries to the read.
		p.Seq, p.PayloadLen, p.FlowID, p.Gen = ^uint64(0), -1, -1, -1
		p.Tapped, p.EnqueuedAt, p.DequeuedAt = true, poisonTime, poisonTime
		return
	}
	pl.free = append(pl.free, p)
}
