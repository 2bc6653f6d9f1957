package netem

import (
	"fmt"
	"math/rand"
	"strings"

	"element/internal/aqm"
	"element/internal/sim"
	"element/internal/units"
)

// Direction selects which way application data flows across a profile.
type Direction int

// Directions.
const (
	Download Direction = iota // server → client: client-side downlink is the bottleneck
	Upload                    // client → server: client-side uplink is the bottleneck
)

func (d Direction) String() string {
	if d == Upload {
		return "upload"
	}
	return "download"
}

// Modulation describes a time-varying bandwidth process applied to a link,
// used to model the MAC/PHY variability of WiFi and LTE.
type Modulation struct {
	// Period is how often a new rate is drawn.
	Period units.Duration
	// MinFactor/MaxFactor bound the multiplicative rate factor drawn
	// uniformly each period.
	MinFactor, MaxFactor float64
	// FadeProb is the per-period probability of a deep fade, which
	// multiplies the drawn factor by FadeFactor.
	FadeProb   float64
	FadeFactor float64
}

// apply starts the modulation process on l.
func (m Modulation) apply(eng *sim.Engine, l *Link, base units.Rate, rng *rand.Rand) {
	if m.Period == 0 {
		return
	}
	var tick func()
	tick = func() {
		f := m.MinFactor + rng.Float64()*(m.MaxFactor-m.MinFactor)
		if m.FadeProb > 0 && rng.Float64() < m.FadeProb {
			f *= m.FadeFactor
		}
		l.SetRate(units.Rate(float64(base) * f))
		eng.Schedule(m.Period, tick)
	}
	eng.Schedule(0, tick)
}

// Profile models one of the paper's evaluation networks. DownRate is the
// capacity toward the client, UpRate away from it; the direction chosen at
// Build time decides which one carries the data (and gets the AQM queue).
type Profile struct {
	Name     string
	DownRate units.Rate
	UpRate   units.Rate
	RTT      units.Duration
	Jitter   units.Duration
	LossRate float64
	// QueuePackets is the bottleneck buffer depth (0 = discipline default).
	QueuePackets int
	// Mod, when non-zero, modulates the bottleneck rate over time.
	Mod Modulation
}

// Production network profiles approximating the paper's testbeds (§2.2,
// §4.3, §5.1). Values encode the qualitative properties the evaluation
// relies on: bandwidth scale, RTT scale, variability, and buffer depth.
var (
	// WiredLowBW is the controlled testbed: 10 Mbps, 25 ms one-way delay.
	WiredLowBW = Profile{
		Name: "wired-low-bw", DownRate: 10 * units.Mbps, UpRate: 10 * units.Mbps,
		RTT: 50 * units.Millisecond,
	}
	// WiredHighBW is the 1 Gbps local-network testbed (sub-ms RTT).
	WiredHighBW = Profile{
		Name: "wired-high-bw", DownRate: 1 * units.Gbps, UpRate: 1 * units.Gbps,
		RTT: 1 * units.Millisecond,
	}
	// LAN is the production local network (§5.1: RTT below 2 ms).
	LAN = Profile{
		Name: "lan", DownRate: 1 * units.Gbps, UpRate: 1 * units.Gbps,
		RTT: 800 * units.Microsecond,
	}
	// Cable models the Motorola DCT700 DOCSIS service: asymmetric rates,
	// moderate RTT, deep modem uplink buffer.
	Cable = Profile{
		Name: "cable", DownRate: 100 * units.Mbps, UpRate: 10 * units.Mbps,
		RTT: 20 * units.Millisecond, Jitter: 2 * units.Millisecond,
		QueuePackets: 256,
	}
	// WiFi models an 802.11ac home AP: high but fluctuating rate from MAC
	// contention, small base RTT, occasional deep fades.
	WiFi = Profile{
		Name: "wifi", DownRate: 80 * units.Mbps, UpRate: 60 * units.Mbps,
		RTT: 6 * units.Millisecond, Jitter: 3 * units.Millisecond,
		QueuePackets: 256,
		Mod: Modulation{
			Period: 20 * units.Millisecond, MinFactor: 0.5, MaxFactor: 1.0,
			FadeProb: 0.05, FadeFactor: 0.25,
		},
	}
	// LTE models the AT&T Netgear AC340U setup: variable rate, long RTT,
	// very deep basestation/modem buffers (the classic cellular
	// bufferbloat configuration), small random loss.
	LTE = Profile{
		Name: "lte", DownRate: 30 * units.Mbps, UpRate: 12 * units.Mbps,
		RTT: 60 * units.Millisecond, Jitter: 10 * units.Millisecond,
		LossRate: 0.0002, QueuePackets: 512,
		Mod: Modulation{
			Period: 50 * units.Millisecond, MinFactor: 0.4, MaxFactor: 1.0,
			FadeProb: 0.02, FadeFactor: 0.3,
		},
	}
)

// ProfileByName looks up a production profile.
func ProfileByName(name string) (Profile, error) {
	profiles := []Profile{WiredLowBW, WiredHighBW, LAN, Cable, WiFi, LTE}
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return Profile{}, fmt.Errorf("netem: unknown profile %q (have: %s)", name, strings.Join(names, ", "))
}

// BuildOptions tune profile construction.
type BuildOptions struct {
	// Discipline selects the bottleneck AQM (default pfifo_fast).
	Discipline aqm.Kind
	// ECN enables CE marking in the bottleneck AQM.
	ECN bool
	// Direction selects which way data flows (default Download).
	Direction Direction
}

// Build instantiates the profile as a duplex path on eng. The forward link
// is the data direction with the profile's bottleneck buffer and the chosen
// AQM; the reverse link carries ACKs over a plain FIFO at the opposite
// direction's rate.
func (pr Profile) Build(eng *sim.Engine, opt BuildOptions) *Path {
	dataRate, ackRate := pr.DownRate, pr.UpRate
	if opt.Direction == Upload {
		dataRate, ackRate = pr.UpRate, pr.DownRate
	}
	disc := aqm.MustNew(opt.Discipline, aqm.Config{
		LimitPackets: pr.QueuePackets,
		ECN:          opt.ECN,
	}, eng.Rand())
	path := NewPath(eng, PathConfig{
		Forward: LinkConfig{
			Rate:       dataRate,
			Delay:      pr.RTT / 2,
			Jitter:     pr.Jitter,
			LossRate:   pr.LossRate,
			Discipline: disc,
		},
		Reverse: LinkConfig{
			Rate:  ackRate,
			Delay: pr.RTT / 2,
		},
	})
	pr.Mod.apply(eng, path.Forward, dataRate, eng.Rand())
	return path
}

// StartDynamicBandwidth toggles the link rate between lo and hi every
// period, reproducing the paper's "dynamic bandwidth" scenario (§4.3:
// 10↔50 Mbps every 20 s).
func StartDynamicBandwidth(eng *sim.Engine, l *Link, lo, hi units.Rate, period units.Duration) {
	high := false
	var flip func()
	flip = func() {
		if high {
			l.SetRate(lo)
		} else {
			l.SetRate(hi)
		}
		high = !high
		eng.Schedule(period, flip)
	}
	eng.Schedule(period, flip)
}
