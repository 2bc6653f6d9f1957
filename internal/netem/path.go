package netem

import (
	"element/internal/aqm"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// Path is a duplex network path: a forward (data) link and a reverse (ACK)
// link. Endpoints attach with AttachA/AttachB; packets sent with SendAtoB
// traverse the forward link, SendBtoA the reverse link.
//
// The forward link is the bottleneck under test (its queue is the AQM being
// evaluated); the reverse link gets a plain FIFO, like the paper's testbed
// where the return path is uncongested.
type Path struct {
	Forward *Link
	Reverse *Link

	sinkB Sink
	sinkA Sink
}

// PathConfig configures a duplex path.
type PathConfig struct {
	// Rate/Delay/Jitter/Loss/Discipline apply to the forward link.
	Forward LinkConfig
	// ReverseRate defaults to the forward rate if zero. The reverse delay
	// defaults to the forward delay (symmetric RTT).
	Reverse LinkConfig
}

// NewPath builds a duplex path on eng. Sinks may be attached later.
func NewPath(eng *sim.Engine, cfg PathConfig) *Path {
	p := &Path{}
	if cfg.Reverse.Rate == 0 {
		cfg.Reverse.Rate = cfg.Forward.Rate
	}
	if cfg.Reverse.Delay == 0 {
		cfg.Reverse.Delay = cfg.Forward.Delay
	}
	if cfg.Reverse.Discipline == nil {
		cfg.Reverse.Discipline = aqm.NewFIFO(aqm.Config{})
	}
	p.Forward = NewLink(eng, cfg.Forward, func(q *pkt.Packet) {
		if p.sinkB != nil {
			p.sinkB(q)
		}
	})
	p.Reverse = NewLink(eng, cfg.Reverse, func(q *pkt.Packet) {
		if p.sinkA != nil {
			p.sinkA(q)
		}
	})
	return p
}

// AttachA registers the sink for packets arriving at the A side (i.e.
// delivered by the reverse link).
func (p *Path) AttachA(s Sink) { p.sinkA = s }

// AttachB registers the sink for packets arriving at the B side.
func (p *Path) AttachB(s Sink) { p.sinkB = s }

// WrapSinks interposes wrap around the currently attached sinks: the
// B-side sink (fed by the forward link, reverse=false) and the A-side
// sink (fed by the reverse link, reverse=true). The links read p.sinkA/
// p.sinkB at delivery time, so wrapping works even after endpoints have
// attached — the fault injector uses it to reorder, drop, or batch
// packets between the link and the endpoint without touching either.
func (p *Path) WrapSinks(wrap func(reverse bool, s Sink) Sink) {
	if p.sinkB != nil {
		p.sinkB = wrap(false, p.sinkB)
	}
	if p.sinkA != nil {
		p.sinkA = wrap(true, p.sinkA)
	}
}

// SendAtoB transmits a packet from A toward B over the forward link.
func (p *Path) SendAtoB(q *pkt.Packet) { p.Forward.Send(q) }

// SendBtoA transmits a packet from B toward A over the reverse link.
func (p *Path) SendBtoA(q *pkt.Packet) { p.Reverse.Send(q) }

// RTT reports the base (unloaded) round-trip propagation time.
func (p *Path) RTT() units.Duration { return p.Forward.Delay() + p.Reverse.Delay() }
