package exp

import (
	"fmt"

	"element/internal/apps"
	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/netem"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/udplow"
	"element/internal/units"
)

// Fig16 reproduces Figure 16: one low-latency flow (Sprout-like,
// Verus-like, or Cubic+ELEMENT) sharing a per-flow-buffered bottleneck with
// two Cubic background flows, under varying bandwidth. Reported per flow:
// mean delay and throughput.
//
// Substitution note: the paper runs this over emulated cellular traces
// where each flow effectively has its own buffer; we model that with an SFQ
// bottleneck (fair queueing, no AQM) and a dynamic 8↔16 Mbps rate.
func Fig16(seed int64, duration units.Duration) *Result {
	if duration == 0 {
		duration = 60 * units.Second
	}
	res := &Result{
		ID:     "fig16",
		Title:  "UDP low-latency protocols vs ELEMENT with 2 Cubic background flows (SFQ bottleneck)",
		Header: []string{"algorithm", "flow", "delay (s)", "throughput (Mbps)"},
		Notes: []string{
			"paper shape: Sprout/Verus lowest delay but poor share; ELEMENT slightly higher delay with a fair share",
		},
	}

	// Two Cubic background flows, plus the ELEMENT run's own flow; the
	// UDP flows are made on the scenario's network after Build.
	build := func(low ...FlowSpec) *Scenario {
		return Build(ScenarioConfig{
			Seed: seed, Rate: 12 * units.Mbps, RTT: 50 * units.Millisecond,
			// Bounded per-flow buffering (drop-from-longest), like the
			// per-UE queues of the cellular testbeds Sprout/Verus target.
			Disc: aqm.KindSFQ, QueuePackets: 300,
			DynamicBW: &DynamicBW{Low: 8 * units.Mbps, High: 16 * units.Mbps, Period: 15 * units.Second},
			Duration:  duration,
			Flows:     append([]FlowSpec{{}, {}}, low...),
		})
	}
	emit := func(alg string, lowDelay, lowTput float64, sc *Scenario) {
		res.Rows = append(res.Rows, []string{alg, "low-latency", fmtSec(lowDelay), fmtMbps(lowTput)})
		for i, b := range sc.Flows[:2] {
			res.Rows = append(res.Rows, []string{
				alg, fmt.Sprintf("background-%d", i+1), fmtSec(b.TotalDelay().Seconds()), fmtMbps(b.GoodputBps),
			})
		}
	}

	// Sprout-like and Verus-like.
	for _, mk := range []struct {
		name string
		make func(*stack.Net) *udplow.Flow
	}{
		{"sprout", udplow.NewSprout},
		{"verus", udplow.NewVerus},
	} {
		sc := build()
		f := mk.make(sc.Net)
		sc.RunContext(defaultContext())
		f.Stop()
		emit(mk.name, f.Delays().Mean().Seconds(),
			float64(f.ReceivedBytes())*8/duration.Seconds(), sc)
	}

	// Cubic + ELEMENT.
	sc := build(FlowSpec{CC: cc.KindCubic, Minimize: true})
	sc.RunContext(defaultContext())
	low := sc.Flows[2]
	emit("ELEMENT", low.TotalDelay().Seconds(), low.GoodputBps, sc)
	return res
}

// Fig18 reproduces Figure 18: the 360° VR application streamed over (a)
// Cubic vs ELEMENT+Cubic and (b) Cubic+CoDel vs ELEMENT+Cubic+CoDel. The
// key metrics are the frame-delay CDF against the 200 ms playback deadline
// and the per-second throughput.
func Fig18(seed int64, duration units.Duration) *Result {
	if duration == 0 {
		duration = 40 * units.Second
	}
	res := &Result{
		ID:    "fig18",
		Title: "360° VR streaming with and without ELEMENT",
		Header: []string{"configuration", "frames", "dropped", "p50 delay (ms)", "p95 delay (ms)",
			"miss >200ms (%)", "avg tput (Mbps)"},
		Notes: []string{
			"paper shape: >40% of frames miss the deadline with Cubic, ~10% with Cubic+CoDel, ≈0 with ELEMENT; throughput steadier with ELEMENT",
		},
	}
	run := func(name string, disc aqm.Kind, useElement bool, s int64) {
		eng := sim.New(s)
		d := aqm.MustNew(disc, aqm.Config{}, eng.Rand())
		path := netem.NewPath(eng, netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 10 * units.Millisecond, Discipline: d},
			Reverse: netem.LinkConfig{Rate: 50 * units.Mbps, Delay: 10 * units.Millisecond},
		})
		net := stack.NewNet(eng, path)
		conn := stack.Dial(net, stack.ConnConfig{CC: cc.KindCubic})
		var snd *core.Sender
		if useElement {
			snd = core.AttachSender(eng, conn.Sender, core.Options{Minimize: true})
		}
		st := apps.RunVR(eng, apps.VRConfig{
			UseElement: useElement, Element: snd, Conn: conn, Duration: duration,
		})
		eng.RunUntil(units.Time(duration + units.Second))
		eng.Shutdown()

		cdf := framesCDF(st)
		var tputSum float64
		for _, b := range st.ThroughputSeries {
			tputSum += b
		}
		avgTput := 0.0
		if len(st.ThroughputSeries) > 0 {
			avgTput = tputSum / float64(len(st.ThroughputSeries))
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprint(len(st.FrameDelays)),
			fmt.Sprint(st.Dropped),
			fmtMS(cdf.Percentile(50).Seconds()),
			fmtMS(cdf.Percentile(95).Seconds()),
			fmt.Sprintf("%.1f", 100*st.DeadlineMissFraction(apps.VRDeadline)),
			fmtMbps(avgTput),
		})
	}
	run("cubic alone", aqm.KindFIFO, false, seed)
	run("ELEMENT+cubic", aqm.KindFIFO, true, seed)
	run("cubic+codel", aqm.KindCoDel, false, seed+1)
	run("ELEMENT+cubic+codel", aqm.KindCoDel, true, seed+1)
	return res
}

func framesCDF(st *apps.VRStats) stats.CDF {
	return stats.NewCDF(st.FrameDelays.Delays())
}
