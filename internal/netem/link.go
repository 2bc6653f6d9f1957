// Package netem emulates network paths: rate-limited links with queueing
// disciplines, propagation delay, jitter, random loss, and time-varying
// bandwidth. It is the WAN-emulator ("tc" box) of the paper's testbed plus
// the production-network models (LAN, cable, WiFi, LTE).
package netem

import (
	"element/internal/aqm"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/units"
)

// Sink consumes packets delivered by a link: it takes ownership, and passes
// the packet on or releases it (stack.Net's demux is the terminal one). As
// the lost tap of Link.Tap a Sink only borrows p for the call.
type Sink func(p *pkt.Packet)

// LinkStats are cumulative counters for one link direction.
type LinkStats struct {
	Sent      int // packets handed to Send
	Delivered int // packets delivered to the sink
	Lost      int // packets dropped by random loss
	Bytes     int // payload+header bytes delivered
}

// Link is a unidirectional rate-limited link: an AQM-managed queue feeding
// a serializing transmitter, followed by propagation delay, optional jitter,
// and i.i.d. random loss. Rate changes (SetRate) take effect at the next
// packet serialization, which matches how token-bucket emulators behave.
type Link struct {
	eng   *sim.Engine
	rate  units.Rate
	delay units.Duration
	// jitter adds uniform [0, jitter) extra propagation per packet while
	// preserving packet order (delivery times are made monotonic).
	jitter   units.Duration
	lossRate float64
	disc     aqm.Discipline
	sink     Sink

	busy         bool
	lastDelivery units.Time
	stats        LinkStats

	// Telemetry handles (nil when uninstrumented).
	telem       *telemetry.Scope
	deliveredC  *telemetry.Counter
	deliveredBC *telemetry.Counter
	lostC       *telemetry.Counter
	busySecsC   *telemetry.Counter
	rateG       *telemetry.Gauge

	onLost Sink // tap: packets dropped by random loss after serialization

	// Event handlers bound once in NewLink; each event carries its packet
	// as the argument, so the per-packet path schedules without a closure.
	// Packets in flight wait in a FIFO lane (handler: arrive) — deliver
	// keeps their arrival times monotonic through lastDelivery — so the
	// engine's heap sees one of them at a time.
	serializedFn func(any)
	arrivals     *sim.Lane
}

// Tap attaches per-packet observers: queue wraps the discipline so every
// enqueue/dequeue is seen (see aqm.AttachTap), and lost (optional) fires
// for packets dropped by random loss after serialization. The waterfall
// attribution uses the pair to time link-queue residency and to mark wire
// drops. Call before traffic starts.
func (l *Link) Tap(queue aqm.TapHooks, lost Sink) {
	l.disc = aqm.AttachTap(l.disc, queue)
	l.onLost = lost
}

// Instrument records the link's activity under linkSc (delivery/loss
// counters, serialization busy time for utilization, rate changes) and
// wraps its queueing discipline so enqueue/drop/mark/sojourn are recorded
// under queueSc. Nil scopes disable the respective half.
func (l *Link) Instrument(linkSc, queueSc *telemetry.Scope) {
	l.telem = linkSc
	l.deliveredC = linkSc.Counter("delivered_packets")
	l.deliveredBC = linkSc.Counter("delivered_bytes")
	l.lostC = linkSc.Counter("lost_packets")
	l.busySecsC = linkSc.Counter("busy_seconds")
	l.rateG = linkSc.Gauge("rate_bps")
	l.rateG.Set(float64(l.rate))
	l.disc = aqm.Instrument(l.disc, queueSc)
}

// LinkConfig configures a Link.
type LinkConfig struct {
	Rate     units.Rate     // serialization rate (required)
	Delay    units.Duration // one-way propagation delay
	Jitter   units.Duration // max extra per-packet delay (0 = none)
	LossRate float64        // i.i.d. drop probability in [0, 1)
	// Discipline is the queue in front of the transmitter. Nil gets a
	// default pfifo_fast-like FIFO.
	Discipline aqm.Discipline
}

// NewLink creates a link on eng delivering packets to sink.
func NewLink(eng *sim.Engine, cfg LinkConfig, sink Sink) *Link {
	d := cfg.Discipline
	if d == nil {
		d = aqm.NewFIFO(aqm.Config{})
	}
	l := &Link{
		eng:      eng,
		rate:     cfg.Rate,
		delay:    cfg.Delay,
		jitter:   cfg.Jitter,
		lossRate: cfg.LossRate,
		disc:     d,
		sink:     sink,
	}
	l.serializedFn = l.serialized
	l.arrivals = eng.NewLane(l.arrive)
	return l
}

// Send offers a packet to the link and takes ownership of it. A packet the
// queue rejects (tail drop, PIE's enqueue drop) is released here, after the
// tap and instrument wrappers around the discipline have seen it, so p may
// be back in its pool when Send returns; the queue's stats record the drop.
// An accepted packet is the link's until it hands it to the sink, or
// releases it on random loss.
func (l *Link) Send(p *pkt.Packet) {
	l.stats.Sent++
	if !l.disc.Enqueue(p, l.eng.Now()) {
		p.Release()
		return
	}
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext pulls the next packet from the queue and serializes it.
func (l *Link) transmitNext() {
	p := l.disc.Dequeue(l.eng.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	tx := l.rate.TransmissionTime(p.Size())
	l.busySecsC.Add(tx.Seconds())
	l.eng.ScheduleCall(tx, l.serializedFn, p)
}

// serialized fires when the transmitter has clocked out packet arg.
func (l *Link) serialized(arg any) {
	l.deliver(arg.(*pkt.Packet))
	l.transmitNext()
}

// deliver applies loss, propagation and jitter to a serialized packet.
func (l *Link) deliver(p *pkt.Packet) {
	if l.lossRate > 0 && l.eng.Rand().Float64() < l.lossRate {
		l.stats.Lost++
		if l.telem != nil {
			l.lostC.Inc()
			l.telem.Event(telemetry.SevInfo, "random_loss",
				telemetry.F("seq", float64(p.Seq)), telemetry.F("bytes", float64(p.Size())))
		}
		if l.onLost != nil {
			l.onLost(p)
		}
		p.Release()
		return
	}
	d := l.delay
	if l.jitter > 0 {
		d += units.Duration(l.eng.Rand().Int63n(int64(l.jitter)))
	}
	at := l.eng.Now().Add(d)
	// Preserve FIFO delivery order under jitter.
	if at < l.lastDelivery {
		at = l.lastDelivery
	}
	l.lastDelivery = at
	l.arrivals.At(at, p)
}

// arrive fires when packet arg reaches the far end of the link.
func (l *Link) arrive(arg any) {
	p := arg.(*pkt.Packet)
	size := p.Size()
	l.stats.Delivered++
	l.stats.Bytes += size
	if l.telem != nil {
		l.deliveredC.Inc()
		l.deliveredBC.Add(float64(size))
	}
	l.sink(p)
}

// SetRate changes the link rate; it takes effect for the next serialized
// packet.
func (l *Link) SetRate(r units.Rate) {
	if l.telem != nil && r != l.rate {
		l.rateG.Set(float64(r))
		l.telem.Event(telemetry.SevInfo, "rate_change",
			telemetry.F("from_bps", float64(l.rate)), telemetry.F("to_bps", float64(r)))
		l.telem.Sample("rate", telemetry.F("bps", float64(r)))
	}
	l.rate = r
}

// Rate reports the current link rate.
func (l *Link) Rate() units.Rate { return l.rate }

// SetLossRate changes the i.i.d. loss probability.
func (l *Link) SetLossRate(p float64) { l.lossRate = p }

// LossRate reports the current i.i.d. loss probability.
func (l *Link) LossRate() float64 { return l.lossRate }

// SetDelay changes the propagation delay for subsequently delivered packets.
func (l *Link) SetDelay(d units.Duration) { l.delay = d }

// Delay reports the configured propagation delay.
func (l *Link) Delay() units.Duration { return l.delay }

// QueueLen reports the number of packets waiting in the queue.
func (l *Link) QueueLen() int { return l.disc.Len() }

// Stats reports the link's cumulative counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueStats reports the queue discipline's counters.
func (l *Link) QueueStats() aqm.Stats { return l.disc.Stats() }

// Discipline exposes the queue for inspection.
func (l *Link) Discipline() aqm.Discipline { return l.disc }
