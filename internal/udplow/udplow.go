// Package udplow implements simplified versions of the UDP-based
// low-latency transport protocols the paper compares against in Figure 16:
//
//   - Sprout (Winstein et al., NSDI'13): the receiver forecasts the link's
//     delivery rate and the sender transmits only as much as can drain
//     within a fixed delay budget, with a conservative (lower-percentile)
//     forecast. Very low delay, deliberately cautious utilization.
//   - Verus (Zaki et al., SIGCOMM'15): a delay-profile protocol that maps
//     the observed queueing delay to a sending window, incrementing the
//     window while delay is below a threshold and multiplicatively backing
//     off above it.
//
// Both are reduced to their control laws; framing, FEC and forecasting
// details are abstracted away. What Figure 16 needs is their qualitative
// trade-off — minimal self-inflicted queueing at the cost of throughput —
// and that is exactly what the control laws produce.
package udplow

import (
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/units"
)

// datagramSize is the UDP payload per packet.
const datagramSize = 1400

// feedbackInterval is how often the receiver reports back.
const feedbackInterval = 20 * units.Millisecond

// A data datagram carries its sequence number and send time in the
// packet's own Seq and SentAt. feedback is the receiver's periodic report,
// carried as the Payload of a packet toward the sender.
type feedback struct {
	received   int            // datagrams received so far
	deliveryBW units.Rate     // delivery rate over the last interval
	qdelay     units.Duration // EWMA one-way delay above the observed floor
}

// Flow is one UDP low-latency flow: a paced sender at A driven by receiver
// feedback from B.
type Flow struct {
	name   string
	eng    *sim.Engine
	net    *stack.Net
	flowID int

	// Control law, invoked on each feedback packet: returns the new
	// sending rate.
	control func(fb feedback) units.Rate

	rate    units.Rate
	nextSeq uint64
	timer   sim.Timer
	stopped bool

	// Receiver state.
	received     int
	lastCount    int
	lastFbAt     units.Time
	minOneWay    units.Duration
	qdelayEWMA   units.Duration
	delaySamples stats.Series
	fbTimer      sim.Timer
}

// newFlow wires the sender, receiver and feedback loop.
func newFlow(name string, net *stack.Net, control func(*Flow, feedback) units.Rate, initial units.Rate) *Flow {
	f := &Flow{
		name:   name,
		eng:    net.Engine(),
		net:    net,
		flowID: net.AllocProbeFlowID(),
		rate:   initial,
	}
	f.control = func(fb feedback) units.Rate { return control(f, fb) }

	// Receiver at B: record delays, periodically send feedback.
	net.RegisterB(f.flowID, func(q *pkt.Packet) {
		now := f.eng.Now()
		oneWay := now.Sub(q.SentAt)
		if f.minOneWay == 0 || oneWay < f.minOneWay {
			f.minOneWay = oneWay
		}
		qd := oneWay - f.minOneWay
		if f.qdelayEWMA == 0 {
			f.qdelayEWMA = qd
		} else {
			f.qdelayEWMA = f.qdelayEWMA*7/8 + qd/8
		}
		f.received++
		f.delaySamples = append(f.delaySamples, stats.Sample{
			At: now, Delay: oneWay, Bytes: q.PayloadLen,
		})
	})

	// Sender at A: receive feedback, re-run the control law.
	net.RegisterA(f.flowID, func(q *pkt.Packet) {
		fb, ok := q.Payload.(feedback)
		if !ok {
			return
		}
		f.rate = f.control(fb)
		if f.rate < 50*units.Kbps {
			f.rate = 50 * units.Kbps // keep probing minimally
		}
	})

	f.scheduleSend()
	f.scheduleFeedback()
	return f
}

// scheduleSend paces datagrams at the current rate.
func (f *Flow) scheduleSend() {
	if f.stopped {
		return
	}
	gap := f.rate.TransmissionTime(datagramSize + pkt.DefaultHeaderLen)
	f.timer = f.eng.Schedule(gap, func() {
		if f.stopped {
			return
		}
		f.nextSeq++
		q := f.net.Pool().Get()
		q.FlowID = f.flowID
		q.PayloadLen = datagramSize
		q.HeaderLen = pkt.DefaultHeaderLen
		q.Seq = f.nextSeq
		q.SentAt = f.eng.Now()
		f.net.Path().SendAtoB(q)
		f.scheduleSend()
	})
}

// scheduleFeedback emits the receiver report every feedbackInterval.
func (f *Flow) scheduleFeedback() {
	f.fbTimer = f.eng.Schedule(feedbackInterval, func() {
		if f.stopped {
			return
		}
		now := f.eng.Now()
		elapsed := now.Sub(f.lastFbAt)
		var bw units.Rate
		if elapsed > 0 {
			bw = units.Rate(float64((f.received-f.lastCount)*datagramSize*8) / elapsed.Seconds())
		}
		f.lastCount = f.received
		f.lastFbAt = now
		q := f.net.Pool().Get()
		q.FlowID = f.flowID
		q.Flags = pkt.FlagACK
		q.HeaderLen = pkt.DefaultHeaderLen
		q.Payload = feedback{
			received: f.received, deliveryBW: bw, qdelay: f.qdelayEWMA,
		}
		f.net.Path().SendBtoA(q)
		f.scheduleFeedback()
	})
}

// Name reports the protocol name.
func (f *Flow) Name() string { return f.name }

// Delays reports the per-datagram one-way delays observed at the receiver.
func (f *Flow) Delays() stats.Series { return f.delaySamples }

// ReceivedBytes reports the bytes delivered so far.
func (f *Flow) ReceivedBytes() int { return f.received * datagramSize }

// Stop halts the flow.
func (f *Flow) Stop() {
	f.stopped = true
	f.timer.Stop()
	f.fbTimer.Stop()
}

// Sprout's tick budget: drain everything within this horizon.
const sproutBudget = 100 * units.Millisecond

// NewSprout starts a Sprout-like flow. The control law sends at the
// conservative fraction of the forecast delivery rate, reduced further by
// however much standing delay has built up relative to the 100 ms budget.
func NewSprout(net *stack.Net) *Flow {
	ewmaBW := units.Rate(0)
	return newFlow("sprout", net, func(f *Flow, fb feedback) units.Rate {
		if fb.deliveryBW > 0 {
			if ewmaBW == 0 {
				ewmaBW = fb.deliveryBW
			} else {
				ewmaBW = 0.875*ewmaBW + 0.125*fb.deliveryBW
			}
		}
		// Conservative forecast (the "95%-certain" lower bound): half the
		// smoothed delivery rate, scaled down linearly as the standing
		// queue eats into the 100 ms budget.
		headroom := 1 - fb.qdelay.Seconds()/sproutBudget.Seconds()
		if headroom < 0 {
			headroom = 0
		}
		return units.Rate(0.5 * float64(ewmaBW) * headroom)
	}, 2*units.Mbps)
}

// Verus parameters for the simplified delay-profile law.
const (
	verusDelayTarget = 50 * units.Millisecond
	verusBackoff     = 0.7
	verusStep        = 200 * units.Kbps
)

// NewVerus starts a Verus-like flow: additive rate increase while the
// observed queueing delay is under the target, multiplicative decrease
// above it — the essence of Verus's delay-profile window adjustment.
func NewVerus(net *stack.Net) *Flow {
	return newFlow("verus", net, func(f *Flow, fb feedback) units.Rate {
		if fb.qdelay < verusDelayTarget {
			return f.rate + verusStep
		}
		return units.Rate(float64(f.rate) * verusBackoff)
	}, 2*units.Mbps)
}
