package exp

import (
	"fmt"

	"element/internal/fleet"
	"element/internal/overload"
	"element/internal/units"
)

// Scale demonstrates the million-monitor mode: per-shard event loops
// over a static poll schedule, struct-of-arrays lite trackers laid out
// in poll order, and budget-gated two-phase escalation — the same
// pipeline the big fleet runs, with the simulated stack replaced by
// closed-form flows so one process can poll a fleet the paper's
// deployment section describes.
// Rows sweep the fleet size an order of magnitude at a time; every run
// reports the escalation funnel and the merged run-wide quantiles. With
// DefaultTelemetry attached, the scale fleet's snd/rcv poll counters
// feed elembench's per-poll cost line, which is the experiment's
// headline number: per-poll cost must not grow with fleet size.
func Scale(seed int64, duration units.Duration) *Result {
	if duration <= 0 {
		duration = 4 * units.Second
	}
	res := &Result{
		ID:    "scale",
		Title: "Million-monitor fleet: event-loop polling with two-phase escalation",
		Header: []string{"flows", "shards", "polls", "tracker polls", "escalations",
			"demotions", "false alarms", "p50 ms", "p99 ms", "parked"},
	}
	for _, flows := range []int{10_000, 100_000} {
		shards := 4
		r := fleet.NewScale(fleet.ScaleConfig{
			Seed:     seed,
			Flows:    flows,
			Duration: duration,
			Interval: 100 * units.Millisecond,
			Shards:   shards,
			Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: flows / 64}},
			Telem:    DefaultTelemetry,
		}).Run()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", r.Flows),
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", r.Polls),
			fmt.Sprintf("%d", r.TrackerPolls),
			fmt.Sprintf("%d", r.Escalations),
			fmt.Sprintf("%d", r.Demotions),
			fmt.Sprintf("%d", r.FalseAlarms),
			fmt.Sprintf("%.1f", r.SndP50*1e3),
			fmt.Sprintf("%.1f", r.SndP99*1e3),
			fmt.Sprintf("%d", r.TierCounts[overload.TierParked]),
		})
	}
	res.Notes = append(res.Notes,
		"closed-form workload: written/acked are pure functions of (seed, id, t) — no per-flow state evolves between polls, so results are invariant for any -shards",
		"escalation budget: LiveFull = flows/64; promotions gate at barriers, so the full-tracker population never exceeds the budget between governor ticks",
		"run `elemfleet -scale 1000000 -shards 8 -budget-live 4096` for the full-size fleet; `elembench -run scale -metrics-summary` prints the per-poll cost line")
	return res
}
