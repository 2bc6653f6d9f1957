package faults

import (
	"fmt"
	"math"

	"element/internal/netem"
	"element/internal/pkt"
	"element/internal/units"
)

// ApplyPath composes this injector's path chaos on top of a netem path:
// link flaps (blackout windows with loss rate 1 in both directions),
// sinusoidal rate oscillation on the forward link, reorder bursts, and
// ACK compression/loss. Must be called after the endpoints have attached
// their sinks (stack.NewNet), because reordering and ACK batching wrap
// the registered delivery sinks. Nil-safe.
func (inj *Injector) ApplyPath(p *netem.Path) {
	if inj == nil {
		return
	}
	pf := inj.prof.Path
	if pf.FlapPeriod > 0 && pf.FlapLen > 0 {
		inj.scheduleFlap(p, pf)
	}
	if pf.RateOscPeriod > 0 && pf.RateOscDepth > 0 {
		inj.scheduleOsc(p, pf, p.Forward.Rate(), 0)
	}
	if pf.ReorderProb > 0 || pf.AckLossProb > 0 || pf.AckCompress > 0 {
		inj.wrapSinks(p, pf)
	}
}

// scheduleFlap runs the blackout loop: wait a randomized period past the
// previous blackout, kill both directions for FlapLen, restore, repeat.
func (inj *Injector) scheduleFlap(p *netem.Path, pf PathFaults) {
	delay := pf.FlapLen + units.Duration(float64(pf.FlapPeriod)*(0.5+inj.rng.Float64()))
	inj.eng.Schedule(delay, func() {
		inj.counts.Blackouts++
		inj.emit("blackout", pf.FlapLen.String())
		fwd, rev := p.Forward.LossRate(), p.Reverse.LossRate()
		p.Forward.SetLossRate(1)
		p.Reverse.SetLossRate(1)
		inj.eng.Schedule(pf.FlapLen, func() {
			p.Forward.SetLossRate(fwd)
			p.Reverse.SetLossRate(rev)
			inj.emit("blackout_end", "")
		})
		inj.scheduleFlap(p, pf)
	})
}

// oscSteps is how many rate adjustments one oscillation period takes.
const oscSteps = 16

// scheduleOsc swings the forward rate sinusoidally around its base.
func (inj *Injector) scheduleOsc(p *netem.Path, pf PathFaults, base units.Rate, step int) {
	inj.eng.Schedule(pf.RateOscPeriod/oscSteps, func() {
		step++
		phase := 2 * math.Pi * float64(step) / oscSteps
		r := units.Rate(float64(base) * (1 + pf.RateOscDepth*math.Sin(phase)))
		if r < base/10 {
			r = base / 10
		}
		p.Forward.SetRate(r)
		inj.counts.RateSteps++
		inj.scheduleOsc(p, pf, base, step)
	})
}

// ackBatch is the per-direction ACK-compression state. It holds the
// packets it batches and passes each on to the sink at the flush.
type ackBatch struct {
	held      []*pkt.Packet
	scheduled bool
}

// wrapSinks interposes the reorder and ACK faults between each link and
// its endpoint. The wrapper owns each packet the link delivers: it passes
// it on to the wrapped sink (now, or later from the reorder closure or the
// ACK batch) or, on ACK loss, releases it.
func (inj *Injector) wrapSinks(p *netem.Path, pf PathFaults) {
	p.WrapSinks(func(reverse bool, s netem.Sink) netem.Sink {
		batch := &ackBatch{}
		return func(q *pkt.Packet) {
			if q.PayloadLen == 0 {
				// Pure ACK: loss first, then compression batching.
				if pf.AckLossProb > 0 && inj.rng.Float64() < pf.AckLossProb {
					inj.counts.AcksDropped++
					q.Release()
					return
				}
				if pf.AckCompress > 0 {
					batch.held = append(batch.held, q)
					inj.counts.AcksHeld++
					if !batch.scheduled {
						batch.scheduled = true
						inj.eng.Schedule(pf.AckCompress, func() {
							batch.scheduled = false
							held := batch.held
							batch.held = nil
							for _, h := range held {
								s(h)
							}
						})
					}
					return
				}
				s(q)
				return
			}
			// Data packet: reorder by holding it back while later packets
			// pass.
			if pf.ReorderProb > 0 && pf.ReorderDelay > 0 && inj.rng.Float64() < pf.ReorderProb {
				inj.counts.Reordered++
				inj.emit("reorder", fmt.Sprintf("seq %d held %s", q.Seq, pf.ReorderDelay))
				inj.eng.Schedule(pf.ReorderDelay, func() { s(q) })
				return
			}
			s(q)
		}
	})
}
