package exp

import (
	"fmt"

	"element/internal/apps"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/probes"
	"element/internal/stats"
	"element/internal/units"
)

// Table1 reproduces Table 1: ELEMENT versus the existing TCP-based delay
// measurement tools on a saturated 10 Mbps / 50 ms path, against kernel
// ground truth, averaged over `runs` repetitions (the paper uses 15).
//
// The structural claims being reproduced:
//   - tcpping/paping/hping3 report only the path RTT (x for both endhost
//     columns);
//   - echoping reports a single end-to-end transfer time;
//   - ELEMENT decomposes sender/network/receiver and matches ground truth.
func Table1(seed int64, runs int, duration units.Duration) *Result {
	if runs == 0 {
		runs = 15
	}
	if duration == 0 {
		duration = 30 * units.Second
	}

	type agg struct{ snd, net, rcv, rtt, echo []float64 }
	var gt, el agg
	var toolRTTs = map[string][]float64{}
	var echoTimes []float64

	for r := 0; r < runs; r++ {
		sc := Build(ScenarioConfig{
			Seed: seed + int64(r), Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
			QueuePackets: wanQueuePackets, Duration: duration,
			Flows: []FlowSpec{{CC: cc.KindCubic, Element: true, Idle: true}},
		})
		f := sc.Flows[0]
		apps.StartBulk(sc.Eng, core.Interposed{S: f.Sender}, core.InterposedReader{R: f.Receiver},
			16<<10, units.Time(duration), sc.Inj)

		tping := probes.NewTCPPing(sc.Net)
		paping := probes.NewPaping(sc.Net)
		hping := probes.NewHping3(sc.Net)
		echo := probes.NewEchoPing(sc.Net, 256<<10, 0)

		sc.RunContext(defaultContext())

		gt.snd = append(gt.snd, f.GT.SenderDelay().Mean().Seconds())
		gt.net = append(gt.net, f.GT.NetworkDelay().Mean().Seconds())
		gt.rcv = append(gt.rcv, f.GT.ReceiverDelay().Mean().Seconds())

		el.snd = append(el.snd, f.Sender.Estimates().Series().Mean().Seconds())
		el.net = append(el.net, f.Conn.Sender.SRTT().Seconds())
		el.rcv = append(el.rcv, receiverMeanOrZero(f.Receiver))

		toolRTTs["tcpping"] = append(toolRTTs["tcpping"], tping.RTTs().Mean().Seconds())
		toolRTTs["paping"] = append(toolRTTs["paping"], paping.RTTs().Mean().Seconds())
		toolRTTs["hping3"] = append(toolRTTs["hping3"], hping.RTTs().Mean().Seconds())
		echoTimes = append(echoTimes, echo.Transfers().Mean().Seconds())
	}

	cell := func(xs []float64) string {
		m, sd := stats.MeanStdev(xs)
		return fmt.Sprintf("%.3f (%.3f)", m, sd)
	}
	res := &Result{
		ID:     "tab1",
		Title:  "ELEMENT vs TCP-based delay measurement tools (seconds)",
		Header: []string{"tool", "sender sys delay (stdev)", "avg network delay (stdev)", "receiver sys delay (stdev)"},
		Rows: [][]string{
			{"ground truth", cell(gt.snd), cell(gt.net), cell(gt.rcv)},
			{"ELEMENT", cell(el.snd), cell(el.net), cell(el.rcv)},
			{"tcpping", "x", cell(toolRTTs["tcpping"]), "x"},
			{"paping", "x", cell(toolRTTs["paping"]), "x"},
			{"hping3", "x", cell(toolRTTs["hping3"]), "x"},
			{"echoping", cell(echoTimes) + " (total end-to-end only)", "", ""},
		},
		Notes: []string{
			fmt.Sprintf("%d runs of %v each; ELEMENT network column is its RTT view (tcp_info srtt)", runs, duration),
			"paper shape: RTT probes see only path delay; ELEMENT matches ground truth on all three components",
			"the controlled testbed is deterministic (no loss/jitter processes), so repeated runs coincide and stdev is 0",
			"ELEMENT's receiver column only samples while reads lag the TCP layer (loss episodes), so it sits above the all-bytes ground-truth mean; see EXPERIMENTS.md",
		},
	}
	return res
}

// receiverMeanOrZero handles flows whose receiver tracker produced no
// samples (no out-of-order waits).
func receiverMeanOrZero(r *core.Receiver) float64 {
	s := r.Estimates().Series()
	if len(s) == 0 {
		return 0
	}
	return s.Mean().Seconds()
}
