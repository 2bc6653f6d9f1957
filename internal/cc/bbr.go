package cc

import (
	"element/internal/units"
)

// BBR parameters (Cardwell et al. 2016; simplified v1).
const (
	bbrHighGain      = 2.885 // 2/ln(2): startup pacing/cwnd gain
	bbrDrainGain     = 1 / bbrHighGain
	bbrCwndGain      = 2.0
	bbrBtlBwWindow   = 10                      // max-filter window, in RTTs (packet-timed rounds)
	bbrProbeRTTEvery = 10 * units.Second       // how often to enter PROBE_RTT
	bbrProbeRTTTime  = 200 * units.Millisecond // PROBE_RTT dwell
	bbrMinCwndSegs   = 4
)

// bbrProbeGains is the PROBE_BW pacing-gain cycle.
var bbrProbeGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// maxFilter is a windowed max filter over integer round counts. It is a
// monotone deque: samples are in arrival order, so rounds never decrease
// along it, and a sample survives only while no later one is at least as
// large, so v strictly decreases along it. The maximum is the first
// sample.
type maxFilter struct {
	samples []maxSample
	window  int
}

type maxSample struct {
	round int
	v     units.Rate
}

// update adds sample v of round, which is never below an earlier update's.
// The samples that expire are a prefix (their rounds are the oldest) and
// the ones v dominates a suffix (their values are the smallest), so
// update drops both without a scan of what stays.
func (f *maxFilter) update(round int, v units.Rate) {
	s := f.samples
	i := 0
	for i < len(s) && s[i].round <= round-f.window {
		i++
	}
	j := len(s)
	for j > i && s[j-1].v <= v {
		j--
	}
	if i > 0 {
		j = copy(s, s[i:j])
	}
	f.samples = append(s[:j], maxSample{round, v})
}

// get reports the largest sample in the window, floored at 0 (0 when
// there is none).
func (f *maxFilter) get() units.Rate {
	if len(f.samples) == 0 {
		return 0
	}
	return max(f.samples[0].v, 0)
}

// BBR is a simplified BBR v1: it estimates the bottleneck bandwidth (max
// filter over delivery-rate samples) and the round-trip propagation time
// (min filter), paces at gain×BtlBw and caps inflight at cwnd_gain×BDP.
// Packet loss does not reduce the window (the property Figure 15 of the
// paper probes); only RTO resets it.
//
// The paper notes (footnote 5) that its BBR results come from Linux
// 4.12.10's implementation, which still exhibits large *sender-side* delay
// because the send buffer auto-tuning keeps the socket buffer at ~2 cwnd
// regardless of the pacing behaviour. That interaction is reproduced by
// internal/sockbuf, not here.
type BBR struct {
	mss int

	state     bbrState
	btlBw     maxFilter
	rtProp    units.Duration
	rtPropAt  units.Time
	round     int
	roundEnds uint64 // delivered-bytes mark that ends the current round
	delivered uint64

	pacingGain   float64
	cwndGain     float64
	cycleIndex   int
	cycleStart   units.Time
	probeRTTDone units.Time
	probeRTTMin  units.Duration
	fullBw       units.Rate
	fullBwCount  int

	cwnd int // bytes
}

// NewBBR returns a simplified BBR instance.
func NewBBR(mss int) *BBR {
	return &BBR{
		mss:        mss,
		state:      bbrStartup,
		btlBw:      maxFilter{window: bbrBtlBwWindow},
		pacingGain: bbrHighGain,
		cwndGain:   bbrHighGain,
		cwnd:       initialCwndSegs * mss,
	}
}

// Name implements Algorithm.
func (b *BBR) Name() string { return "bbr" }

// OnAck implements Algorithm. It feeds the bandwidth and RTT models and
// runs the state machine.
func (b *BBR) OnAck(now units.Time, ackedBytes int, rtt units.Duration, inFlight int, inRecovery bool) {
	b.delivered += uint64(ackedBytes)
	// Round accounting: one round per cwnd of delivered data.
	if b.delivered >= b.roundEnds {
		b.round++
		b.roundEnds = b.delivered + uint64(b.cwnd)
	}
	// Delivery-rate sample: acked bytes per RTT is a serviceable proxy at
	// this abstraction level (we have no per-packet delivered timestamps).
	if rtt > 0 {
		rate := units.Rate(float64(ackedBytes+inFlight) * 8 / rtt.Seconds())
		b.btlBw.update(b.round, rate)
		// RTprop only improves here; expiry of the min-filter window is
		// handled by entering PROBE_RTT, which refreshes the estimate.
		if b.rtProp == 0 || rtt < b.rtProp {
			b.rtProp = rtt
			b.rtPropAt = now
		}
		if b.state == bbrProbeRTT && (b.probeRTTMin == 0 || rtt < b.probeRTTMin) {
			b.probeRTTMin = rtt
		}
	}

	switch b.state {
	case bbrStartup:
		b.checkFullPipe()
		if b.fullBwCount >= 3 {
			b.state = bbrDrain
			b.pacingGain = bbrDrainGain
			b.cwndGain = bbrHighGain
		}
	case bbrDrain:
		if inFlight <= b.bdpBytes(1.0) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		// Advance the gain cycle once per RTprop.
		if b.rtProp > 0 && now.Sub(b.cycleStart) > b.rtProp {
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrProbeGains)
			b.cycleStart = now
			b.pacingGain = bbrProbeGains[b.cycleIndex]
		}
		// Periodically revisit RTprop.
		if now.Sub(b.rtPropAt) > units.Duration(bbrProbeRTTEvery) {
			b.state = bbrProbeRTT
			b.probeRTTDone = now.Add(bbrProbeRTTTime)
			b.probeRTTMin = 0
		}
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			if b.probeRTTMin > 0 {
				b.rtProp = b.probeRTTMin
			}
			b.rtPropAt = now // refreshed
			b.enterProbeBW(now)
		}
	}
	b.updateCwnd()
}

func (b *BBR) enterProbeBW(now units.Time) {
	b.state = bbrProbeBW
	b.cwndGain = bbrCwndGain
	b.cycleIndex = 0
	b.cycleStart = now
	b.pacingGain = bbrProbeGains[b.cycleIndex]
}

// checkFullPipe detects the end of startup: bandwidth stopped growing ≥25%
// for three rounds.
func (b *BBR) checkFullPipe() {
	bw := b.btlBw.get()
	if bw >= units.Rate(float64(b.fullBw)*1.25) {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
}

func (b *BBR) bdpBytes(gain float64) int {
	bw := b.btlBw.get()
	if bw == 0 || b.rtProp == 0 {
		return initialCwndSegs * b.mss
	}
	return int(gain * bw.BytesPerSecond() * b.rtProp.Seconds())
}

func (b *BBR) updateCwnd() {
	if b.state == bbrProbeRTT {
		b.cwnd = bbrMinCwndSegs * b.mss
		return
	}
	w := b.bdpBytes(b.cwndGain)
	if w < bbrMinCwndSegs*b.mss {
		w = bbrMinCwndSegs * b.mss
	}
	b.cwnd = w
}

// OnLoss implements Algorithm: BBR v1 does not reduce its window on loss.
func (b *BBR) OnLoss(now units.Time) {}

// OnECN implements Algorithm: BBR v1 ignores ECN marks.
func (b *BBR) OnECN(now units.Time) {}

// OnRTO implements Algorithm: conservative reset.
func (b *BBR) OnRTO(now units.Time) {
	b.cwnd = bbrMinCwndSegs * b.mss
}

// CwndBytes implements Algorithm.
func (b *BBR) CwndBytes() int { return b.cwnd }

// SsthreshSegs implements Algorithm.
func (b *BBR) SsthreshSegs() int { return maxSsthreshSegs }

// PacingRate implements Algorithm.
func (b *BBR) PacingRate() units.Rate {
	bw := b.btlBw.get()
	if bw == 0 {
		return 0 // no model yet: window-limited slow start
	}
	return units.Rate(b.pacingGain * float64(bw))
}

// State exposes the internal state for tests.
func (b *BBR) State() int { return int(b.state) }
