package hypotheses

import (
	"element/internal/aqm"
	"element/internal/netem"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/twin"
	"element/internal/units"
)

// The open-loop queueing-law rig: unlike every other hypothesis this one
// bypasses TCP entirely — a Poisson packet source feeds a raw rate-limited
// link so the queue is a textbook M/G/1 system and the Pollaczek–Khinchine
// formula applies exactly, not just asymptotically. The queue tap times
// each packet from (accepted) enqueue to handoff to the transmitter, which
// is precisely the waiting time W_q (service excluded).

const (
	mm1Rate        = 10 * units.Mbps
	mm1MeanPayload = 960 // bytes; + 40 header ⇒ E[S] = 0.8 ms at 10 Mbps
	mm1PayloadCap  = 100 * mm1MeanPayload
)

// mm1Cell runs one load point and returns the measured mean wait (s).
func mm1Cell(seed int64, rho float64, npackets int) float64 {
	eng := sim.New(seed)
	fifo := aqm.NewFIFO(aqm.Config{LimitPackets: 1 << 20})
	link := netem.NewLink(eng, netem.LinkConfig{Rate: mm1Rate, Discipline: fifo},
		func(p *pkt.Packet) {})
	// Keyed by pointer: that names one packet only because every packet
	// here is a literal of its own, never a pooled one that comes back.
	enqueued := map[*pkt.Packet]units.Time{}
	var waitSum float64
	var waited int
	link.Tap(aqm.TapHooks{
		Enqueued: func(p *pkt.Packet, now units.Time, accepted bool) {
			if accepted {
				enqueued[p] = now
			}
		},
		Dequeued: func(p *pkt.Packet, now units.Time) {
			if t0, ok := enqueued[p]; ok {
				waitSum += now.Sub(t0).Seconds()
				waited++
				delete(enqueued, p)
			}
		},
	}, nil)

	es, _ := mm1Moments()
	lambda := rho / es
	rng := eng.Rand()
	eng.Spawn("poisson-source", func(p *sim.Proc) {
		for i := 0; i < npackets; i++ {
			p.Sleep(units.DurationFromSeconds(rng.ExpFloat64() / lambda))
			payload := int(rng.ExpFloat64() * mm1MeanPayload)
			if payload > mm1PayloadCap {
				payload = mm1PayloadCap
			}
			link.Send(&pkt.Packet{PayloadLen: payload, HeaderLen: 40})
		}
	})
	// Generous horizon: the source needs npackets/λ seconds in expectation,
	// and the sub-critical queue drains in a few more.
	eng.RunUntil(units.Time(units.DurationFromSeconds(float64(npackets)/lambda + 30)))
	eng.Shutdown()
	if waited == 0 {
		return 0
	}
	return waitSum / float64(waited)
}

// mm1Moments reports the service-time moments of the rig's packets.
func mm1Moments() (es, es2 float64) {
	perByte := 8 / float64(mm1Rate)
	return twin.ShiftedExpMoments(40*perByte, mm1MeanPayload*perByte)
}

var hMM1Queue = Hypothesis{
	Name:  "h-mm1-queue",
	Stage: "queue",
	Title: "Open-loop queue wait follows Pollaczek–Khinchine",
	Law: "mean queue wait = λ·E[S²]/(2·(1−ρ)) (twin.MG1Wait): Poisson arrivals into the " +
		"rate-limited FIFO are an M/G/1 queue, so the measured enqueue→transmit wait " +
		"must match the closed-form formula at every load",
	Design: []string{
		"Open-loop rig: a Poisson source (no TCP, no feedback) sends packets with 40 B headers plus exponentially-sized payloads (mean 960 B) into a raw 10 Mbps link with an unbounded FIFO.",
		"Sweep offered load ρ ∈ {0.3, 0.45, 0.6, 0.7, 0.8} (short: {0.3, 0.6, 0.8}); 20 000 packets per cell (short: 6 000).",
		"The queue tap timestamps accepted enqueues and transmitter handoffs; their difference is the waiting time W_q, excluding the packet's own service.",
		"x = twin.MG1Wait(λ, E[S], E[S²]) with moments from twin.ShiftedExpMoments; y = measured mean wait.",
		"Controlled: rate, size distribution. Varied: arrival rate only. Slope ≈ 1, intercept ≈ 0.",
	},
	XLabel: "twin.MG1Wait prediction (s)",
	YLabel: "measured mean queue wait (s)",
	Checks: Checks{
		MinR2: 0.97, SlopeLo: 0.85, SlopeHi: 1.15,
		InterceptMax: 0.001, Monotone: true, MonotoneTol: 0.0005,
	},
	Collect: func(seed int64, short bool) []Obs {
		rhos := pick(short,
			[]float64{0.3, 0.45, 0.6, 0.7, 0.8},
			[]float64{0.3, 0.6, 0.8})
		n := 20000
		if short {
			n = 6000
		}
		es, es2 := mm1Moments()
		var obs []Obs
		for _, rho := range rhos {
			lambda := rho / es
			obs = append(obs, Obs{
				X:    twin.MG1Wait(lambda, es, es2),
				Y:    mm1Cell(seed, rho, n),
				Seed: seed,
			})
		}
		return obs
	},
}
