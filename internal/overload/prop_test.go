package overload

import (
	"testing"

	"element/internal/core"
	"element/internal/sim"
	"element/internal/tcpinfo"
	"element/internal/units"
)

// propRng is a tiny deterministic generator for trajectory properties —
// the tests must not depend on the runtime's seeding.
type propRng struct{ s uint64 }

func (r *propRng) next() uint64 {
	r.s = splitmix64(r.s)
	return r.s
}
func (r *propRng) intn(n int) int { return int(r.next() % uint64(n)) }

// TestPropLadderFlapFree drives governors with randomized shapes through
// randomized pressure trajectories and asserts the ladder's structural
// guarantees at every tick: transitions happen only outside the
// hysteresis deadband and only in the pressure's direction, never more
// than max(1, flows/16) per tick, always exactly one rung, and no flow ever
// reverses inside its hold window — the flap-free property. Afterwards a
// sustained clean stretch must restore every flow to full coverage.
func TestPropLadderFlapFree(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := &propRng{s: uint64(trial)*0x517cc1b7 + 1}
		// Up to 32 flows per step: the fleet size sets the step.
		flows := 2 + rng.intn(16*32)
		cfg := Config{
			Budgets:   Budgets{RetainedSamples: 100},
			HoldTicks: 1 + rng.intn(12),
			Seed:      int64(rng.next()),
		}
		g := New(cfg, flows)
		for f := 0; f < flows; f += 1 + rng.intn(4) {
			g.SetHot(f, true)
		}
		norm := cfg.normalize()

		tiers := make([]Tier, flows)
		lastTrans := make([]int, flows)
		lastDir := make([]int, flows)
		for i := range lastTrans {
			lastTrans[i] = -1 << 30
		}

		pressure := 0.5
		for tick := 1; tick <= 300; tick++ {
			// A persistent random walk with occasional regime jumps, so
			// trajectories include sustained overload, sustained calm, and
			// dithering right at the water marks.
			switch rng.intn(10) {
			case 0:
				pressure = 0.1 + float64(rng.intn(150))/100
			case 1, 2:
				pressure = norm.HighWater + (float64(rng.intn(21))-10)/100
			default:
				pressure += (float64(rng.intn(21)) - 10) / 200
			}
			if pressure < 0 {
				pressure = 0
			}
			u := Usage{QueueFrac: pressure}
			trans := g.Tick(u)
			p := g.LastPressure()

			if len(trans) > g.perTick {
				t.Fatalf("trial %d tick %d: %d transitions > step %d", trial, tick, len(trans), g.perTick)
			}
			if len(trans) > 0 && p <= norm.HighWater && p >= norm.LowWater {
				t.Fatalf("trial %d tick %d: transitions inside deadband (p=%v)", trial, tick, p)
			}
			seen := map[int]bool{}
			for _, x := range trans {
				if seen[x.Flow] {
					t.Fatalf("trial %d tick %d: flow %d transitioned twice in one tick", trial, tick, x.Flow)
				}
				seen[x.Flow] = true
				dir := int(x.To) - int(x.From)
				if dir != 1 && dir != -1 {
					t.Fatalf("trial %d tick %d: multi-rung jump %+v", trial, tick, x)
				}
				if dir == 1 && p <= norm.HighWater {
					t.Fatalf("trial %d tick %d: demotion at pressure %v ≤ high water", trial, tick, p)
				}
				if dir == -1 && p >= norm.LowWater {
					t.Fatalf("trial %d tick %d: promotion at pressure %v ≥ low water", trial, tick, p)
				}
				if x.From != tiers[x.Flow] {
					t.Fatalf("trial %d tick %d: transition %+v from stale tier (have %v)", trial, tick, x, tiers[x.Flow])
				}
				if x.To >= NumTiers {
					t.Fatalf("trial %d tick %d: left the ladder: %+v", trial, tick, x)
				}
				if held := tick - lastTrans[x.Flow]; held < norm.HoldTicks {
					t.Fatalf("trial %d tick %d: flow %d re-transitioned after %d < HoldTicks %d (flap)",
						trial, tick, x.Flow, held, norm.HoldTicks)
				}
				lastTrans[x.Flow] = tick
				lastDir[x.Flow] = dir
				tiers[x.Flow] = x.To
			}
			var counts [NumTiers]int
			for _, ti := range tiers {
				counts[ti]++
			}
			if counts != g.TierCounts() {
				t.Fatalf("trial %d tick %d: census drift: %v vs %v", trial, tick, counts, g.TierCounts())
			}
		}

		// Recovery guarantee: enough clean ticks restore full coverage.
		clean := Usage{QueueFrac: 0}
		need := flows*(2*norm.HoldTicks+1)*int(NumTiers)/g.perTick + 10*norm.HoldTicks + 100
		for i := 0; i < need; i++ {
			g.Tick(clean)
		}
		if got := g.TierCounts()[TierFull]; got != flows {
			t.Fatalf("trial %d: %d/%d flows recovered to full after %d clean ticks (%v)",
				trial, got, flows, need, g.TierCounts())
		}
	}
}

// TestPropShedWideningMonotone is the estimator half of the ladder
// contract, driven by arbitrary shed sequences. Three properties: (1)
// every sample's error bound admits at least the guards its record sat
// through — so a record outstanding across many sheds accumulates all of
// them, which is exactly "widening is monotone while shed"; (2) every
// shed is counted in the anomaly audit; (3) after clean recovery a fresh
// sample re-tightens to the quantization floor, carrying none of the old
// debt.
func TestPropShedWideningMonotone(t *testing.T) {
	const interval = 10 * units.Millisecond
	for trial := 0; trial < 25; trial++ {
		rng := &propRng{s: uint64(trial)*0x9e3779b9 + 7}
		eng := sim.New(int64(trial + 1))
		src := &fakeShedSource{info: tcpinfo.TCPInfo{SndMSS: 1000, RcvMSS: 1000}}
		tr := core.NewSenderTrackerOpts(eng, src, core.TrackerOptions{Interval: interval, Detached: true})

		var cum uint64
		sheds := 0
		rounds := 2 + rng.intn(6)
		// Phase 1: each round pushes a record, sheds a random number of
		// guards while it is outstanding, then matches it. The sample's
		// bound must admit every guard of its own round.
		for r := 0; r < rounds; r++ {
			cum += 1000
			tr.OnWrite(cum)
			var roundGuards units.Duration
			for i, n := 0, rng.intn(4); i < n; i++ {
				guard := units.Duration(1+rng.intn(8)) * interval
				tr.Shed(guard)
				roundGuards += guard
				sheds++
			}
			eng.RunUntil(eng.Now().Add(interval))
			src.info.BytesAcked = cum
			tr.PollOnce()
			log := tr.Estimates().Log()
			m := log[len(log)-1]
			if m.ErrBound < 2*interval+roundGuards {
				t.Fatalf("trial %d round %d: bound %v does not admit the %v shed while outstanding",
					trial, r, m.ErrBound, roundGuards)
			}
			if roundGuards > 0 && m.Confidence == core.ConfidenceHigh {
				t.Fatalf("trial %d round %d: shed sample still high-confidence", trial, r)
			}
		}

		// Phase 2: one record outstanding across several separate sheds —
		// its eventual bound must admit their sum (the debt accumulates
		// monotonically; no shed is forgotten before the match).
		cum += 1000
		tr.OnWrite(cum)
		var longDebt units.Duration
		for i, n := 0, 1+rng.intn(4); i < n; i++ {
			guard := units.Duration(1+rng.intn(8)) * interval
			tr.Shed(guard)
			longDebt += guard
			sheds++
			eng.RunUntil(eng.Now().Add(interval))
			tr.PollOnce() // no progress: the record keeps waiting
		}
		eng.RunUntil(eng.Now().Add(interval))
		src.info.BytesAcked = cum
		tr.PollOnce()
		log := tr.Estimates().Log()
		if m := log[len(log)-1]; m.ErrBound < 2*interval+longDebt {
			t.Fatalf("trial %d: bound %v forgot part of the accumulated %v shed debt", trial, m.ErrBound, longDebt)
		}
		if got := tr.Anomalies().Sheds; got != sheds {
			t.Fatalf("trial %d: Sheds = %d, want %d", trial, got, sheds)
		}

		// Phase 3: recovery. Clean polls age out the holdoff; two fresh
		// write/match cycles settle the jitter-slack term, after which the
		// bound is back at the 2-interval quantization floor — zero debt.
		for i := 0; i < 6; i++ {
			eng.RunUntil(eng.Now().Add(interval))
			tr.PollOnce()
		}
		for i := 0; i < 2; i++ {
			cum += 1000
			tr.OnWrite(cum)
			eng.RunUntil(eng.Now().Add(interval))
			src.info.BytesAcked = cum
			tr.PollOnce()
		}
		log = tr.Estimates().Log()
		if m := log[len(log)-1]; m.ErrBound != 2*interval {
			t.Fatalf("trial %d: post-recovery bound %v, want the bare quantization floor %v",
				trial, m.ErrBound, 2*interval)
		}
		tr.Stop()
		eng.Shutdown()
	}
}

// fakeShedSource is a minimal scripted InfoSource for the property test
// (core's own fakeSource is package-private).
type fakeShedSource struct{ info tcpinfo.TCPInfo }

func (f *fakeShedSource) GetsockoptTCPInfo() tcpinfo.TCPInfo { return f.info }
func (f *fakeShedSource) SetSndBuf(int)                      {}
