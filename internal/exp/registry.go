package exp

import (
	"fmt"
	"sort"

	"element/internal/units"
)

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	// Desc is a one-line description of what the experiment shows, printed
	// by elembench -list.
	Desc string
	// Run executes the experiment. duration 0 selects the default.
	Run func(seed int64, duration units.Duration) *Result
}

// Registry maps experiment IDs to reproducers, in paper order.
var Registry = []Experiment{
	{"fig2", "Delay composition of a Cubic flow (pfifo_fast)",
		"three Cubic flows on 10 Mbps/25 ms OWD; sender-side buffering dominates a multi-second total", Fig2},
	{"fig3", "Delay composition per qdisc × network",
		"pfifo_fast/CoDel/FQ-CoDel/PIE across five networks; AQM shrinks network delay, endhost delay stays", Fig3},
	{"tab1", "ELEMENT vs TCP-based measurement tools",
		"ping/sockperf/iperf-style probes vs ELEMENT's estimates against ground truth on the loaded path",
		func(s int64, d units.Duration) *Result { return Table1(s, 0, d) }},
	{"fig6", "Ground truth vs ELEMENT over time + error CDF",
		"per-sample tracking of sender/receiver delay estimates along one flow's lifetime", Fig6},
	{"fig7", "Estimation-error CDFs across environments",
		"estimation error distributions over the qdisc × network matrix", Fig7},
	{"fig8", "Estimation error under network dynamics",
		"error under dynamic bandwidth switching and random loss", Fig8},
	{"fig9", "Buffer sizing vs auto-tuning vs ELEMENT",
		"fixed SO_SNDBUF settings vs auto-tuning vs Algorithm 3's delay-minimizing sizing", Fig9},
	{"fig10", "Estimated buffered amount over time",
		"ELEMENT's buffered-bytes estimate tracking the true occupancy", Fig10},
	{"fig13", "Legacy iperf ± ELEMENT across bw × RTT",
		"goodput and delay with and without ELEMENT attached to an unmodified sender", Fig13},
	{"fig14", "Production networks ± ELEMENT",
		"LAN/cable/WiFi/LTE profiles with and without ELEMENT", Fig14},
	{"fig15", "Cubic/Vegas/BBR ± ELEMENT",
		"delay minimization interacting with loss-, delay-, and model-based congestion control", Fig15},
	{"fig16", "Sprout/Verus/ELEMENT delay & fairness",
		"self-inflicted delay and per-flow throughput share vs specialized low-latency protocols", Fig16},
	{"fig18", "VR streaming ± ELEMENT, ± CoDel",
		"motion-to-photon latency of a VR stream with a reverse viewpoint channel", Fig18},
	{"tab_cpu", "ELEMENT overhead",
		"tracker CPU/memory cost per connection", Overhead},
	{"degraded", "Estimator robustness under fault injection",
		"every fault profile vs ground truth: flagged fractions, bound violations, anomaly counts", Degraded},
	{"fleet", "Supervised monitoring fleet vs single-connection ground truth",
		"churning multi-connection fleet with crash/restore supervision reconciled against an unchurned baseline", Fleet},
	{"stream", "Sketch-driven escalation: bufferbloat vs delay-minimized fleet",
		"windowed quantile sketches escalate bufferbloated flows to full waterfall tracing and stay lightweight on the clean fleet", Stream},
	{"tail", "Per-request tail attribution: fan-out RPC waterfall spans",
		"fan-out fleets over degree × cc × qdisc with request-scoped span trees: per-stage p50/p99/p999 decomposition, sibwait, critical-path spread", Tail},
	{"overload", "Overload governor: budgeted shedding and backpressured export",
		"unbudgeted vs budgeted vs budgeted+flapping-sink fleets: degradation-ladder sheds and reclaims, widened-but-flagged bounds, queue retry/backoff accounting", Overload},
	{"scale", "Million-monitor fleet: event-loop polling with two-phase escalation",
		"closed-form flows on per-shard static poll schedules at 10k-100k scale: escalation funnel, merged quantiles, per-poll cost independent of fleet size", Scale},
}

// Register appends an experiment contributed by a higher layer. The
// conformance experiment lives in internal/hypotheses (which imports exp
// for its scenario rig, so it cannot be constructed here without a cycle)
// and registers itself on import; commands that want it link the package.
func Register(e Experiment) {
	for _, have := range Registry {
		if have.ID == e.ID {
			panic(fmt.Sprintf("exp: duplicate experiment id %q", e.ID))
		}
	}
	Registry = append(Registry, e)
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists the registered experiment IDs.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
