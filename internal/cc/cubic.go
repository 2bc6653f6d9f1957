package cc

import (
	"math"

	"element/internal/units"
)

// CUBIC constants from RFC 8312.
const (
	cubicC    = 0.4 // scaling constant (segments/s^3)
	cubicBeta = 0.7 // multiplicative decrease factor
)

// Cubic implements CUBIC congestion control (RFC 8312), Linux's default and
// the algorithm the paper's bufferbloat experiments run. Window growth
// follows W(t) = C·(t−K)³ + W_max with fast convergence and the
// TCP-friendly (Reno-emulation) region.
type Cubic struct {
	mss      int
	cwnd     float64 // segments
	ssthresh float64 // segments

	wMax       float64    // window before the last reduction
	epochStart units.Time // start of the current growth epoch (0 = unset)
	k          float64    // time (s) to regrow to wMax
	wEst       float64    // Reno-friendly window estimate
	ackCount   float64    // acked segments this epoch (for wEst)
	srtt       units.Duration
	lastCut    units.Time

	// HyStart (delay-increase detection): exit slow start when the RTT has
	// risen clearly above its floor for several consecutive samples, which
	// is what keeps real Linux Cubic from overshooting a deep queue by a
	// whole window during startup.
	hystartMinRTT units.Duration
	hystartCount  int
}

// HyStart parameters (Ha & Rhee 2011, as in Linux tcp_cubic).
const (
	hystartSamples  = 8
	hystartMinDelta = 4 * units.Millisecond
	hystartMaxDelta = 16 * units.Millisecond
)

// NewCubic returns a CUBIC instance.
func NewCubic(mss int) *Cubic {
	return &Cubic{mss: mss, cwnd: initialCwndSegs, ssthresh: maxSsthreshSegs}
}

// Name implements Algorithm.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements Algorithm.
func (c *Cubic) OnAck(now units.Time, ackedBytes int, rtt units.Duration, inFlight int, inRecovery bool) {
	if rtt > 0 {
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = (7*c.srtt + rtt) / 8
		}
	}
	if inRecovery {
		return // no window growth while loss recovery is in progress
	}
	segs := float64(ackedBytes) / float64(c.mss)
	if c.cwnd < c.ssthresh {
		if rtt > 0 {
			c.hystart(rtt)
		}
		if c.cwnd < c.ssthresh { // hystart may have just exited slow start
			c.cwnd += segs
			return
		}
		return
	}

	// Congestion avoidance: cubic growth toward/past wMax.
	if c.epochStart == 0 {
		c.epochStart = now
		c.ackCount = 0
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cubicC)
		} else {
			c.k = 0
			c.wMax = c.cwnd
		}
		c.wEst = c.cwnd
	}
	t := now.Sub(c.epochStart).Seconds() + c.srtt.Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax

	// TCP-friendly region (RFC 8312 §4.2).
	c.ackCount += segs
	c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) * segs / c.cwnd
	if c.wEst > target {
		target = c.wEst
	}

	if target > c.cwnd {
		// Approach the target over one RTT, never overshooting it.
		c.cwnd += (target - c.cwnd) / c.cwnd * segs
		if c.cwnd > target {
			c.cwnd = target
		}
	} else {
		c.cwnd += segs / (100 * c.cwnd) // minimal growth when above target
	}
}

// hystart applies the delay-increase exit rule: once hystartSamples
// consecutive RTT samples exceed the observed floor by a clamped eighth of
// it, slow start ends at the current window.
func (c *Cubic) hystart(rtt units.Duration) {
	if c.hystartMinRTT == 0 || rtt < c.hystartMinRTT {
		c.hystartMinRTT = rtt
		c.hystartCount = 0
		return
	}
	delta := c.hystartMinRTT / 8
	if delta < hystartMinDelta {
		delta = hystartMinDelta
	}
	if delta > hystartMaxDelta {
		delta = hystartMaxDelta
	}
	if rtt >= c.hystartMinRTT+delta {
		c.hystartCount++
		if c.hystartCount >= hystartSamples {
			c.ssthresh = c.cwnd // leave slow start at the current window
		}
	} else {
		c.hystartCount = 0
	}
}

// OnLoss implements Algorithm: multiplicative decrease with fast
// convergence.
func (c *Cubic) OnLoss(now units.Time) {
	c.epochStart = 0
	if c.cwnd < c.wMax {
		// Fast convergence: release bandwidth faster when the available
		// capacity shrank.
		c.wMax = c.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= cubicBeta
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.ssthresh = c.cwnd
	c.lastCut = now
}

// OnECN implements Algorithm.
func (c *Cubic) OnECN(now units.Time) {
	guard := c.srtt
	if guard == 0 {
		guard = 10 * units.Millisecond
	}
	if now.Sub(c.lastCut) < guard {
		return
	}
	c.OnLoss(now)
}

// OnRTO implements Algorithm.
func (c *Cubic) OnRTO(now units.Time) {
	c.OnLoss(now)
	c.cwnd = 1
}

// CwndBytes implements Algorithm.
func (c *Cubic) CwndBytes() int { return int(c.cwnd * float64(c.mss)) }

// SsthreshSegs implements Algorithm.
func (c *Cubic) SsthreshSegs() int { return int(c.ssthresh) }

// PacingRate implements Algorithm (CUBIC does not pace here).
func (c *Cubic) PacingRate() units.Rate { return 0 }
