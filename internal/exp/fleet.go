package exp

import (
	"fmt"

	"element/internal/core"
	"element/internal/fleet"
	"element/internal/stats"
	"element/internal/units"
)

// fleetConns is the experiment's fleet width: enough connections for the
// churn fractions to hit each failure mode while staying printable as a
// per-connection table.
const fleetConns = 8

// FleetChurn is the churn schedule the experiment (and cmd/elemfleet's
// default) exercises: staggered opens and a mix of monitor crashes,
// wedges and early closes.
var FleetChurn = fleet.ChurnConfig{
	OpenWindow: units.Second,
	CloseFrac:  0.25,
	CrashFrac:  0.4,
	StallFrac:  0.3,
}

// Fleet reconciles supervised multi-connection monitoring against
// single-connection ground truth: a fleet of churning connections runs
// next to an unchurned single-connection baseline, and every
// connection's series — stitched across monitor crashes, watchdog
// recycles and checkpoint restores — must stay bounded-or-flagged
// against its own trace and agree with the baseline's steady-state mean
// within the widened bounds.
func Fleet(seed int64, duration units.Duration) *Result {
	if duration <= 0 {
		duration = 8 * units.Second
	}
	mk := func(conns int, churn fleet.ChurnConfig) *fleet.Result {
		return fleet.New(fleet.Config{
			Seed:        seed,
			Connections: conns,
			Duration:    duration,
			Churn:       churn,
			Faults:      DefaultFaults,
			Telem:       DefaultTelemetry,
			Waterfall:   DefaultWaterfall,
		}).Run()
	}
	base := mk(1, fleet.ChurnConfig{})
	fl := mk(fleetConns, FleetChurn)

	baseMean, _ := meanDelay(&base.Conns[0].SndLog)
	res := &Result{
		ID:    "fleet",
		Title: "Supervised monitoring fleet vs single-connection ground truth",
		Header: []string{"conn", "snd samples", "flagged%", "violations",
			"restarts", "crashes", "recycles", "mean delay ms", "|Δ base| ms", "goodput Mbps"},
	}
	for _, c := range fl.Conns {
		mean, worst := meanDelay(&c.SndLog)
		diff := mean - baseMean
		if diff < 0 {
			diff = -diff
		}
		verdict := fmt.Sprintf("%.1f", diff.Seconds()*1e3)
		if diff > worst+baseMean {
			verdict += " (!)"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", c.ID),
			fmt.Sprintf("%d", c.Sender.Samples),
			fmt.Sprintf("%.1f", 100*c.Sender.FlaggedShare()),
			fmt.Sprintf("%d", c.Sender.Violations+c.Receiver.Violations),
			fmt.Sprintf("%d", c.Restarts),
			fmt.Sprintf("%d", c.Crashes),
			fmt.Sprintf("%d", c.Recycles),
			fmt.Sprintf("%.1f", mean.Seconds()*1e3),
			verdict,
			fmtMbps(c.GoodputBps),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fleet: %v", fl),
		fmt.Sprintf("baseline (1 conn, no churn): mean sender delay %.1f ms, %d samples, %d violations",
			baseMean.Seconds()*1e3, base.Conns[0].Sender.Samples, base.Violations()),
		"every series is stitched across monitor incarnations: crashes restart with backoff from the last JSON checkpoint, wedged monitors are recycled by the watchdog",
		"bounded-or-flagged must hold per connection (violations 0); restart windows surface as widened bounds and flagged samples, never as silently-wrong estimates")
	return res
}

// meanDelay averages the non-flagged samples of a series and reports the
// worst error bound seen among them.
func meanDelay(log *stats.Log[core.Measurement]) (mean, worst units.Duration) {
	n := 0
	for m := range log.All() {
		if m.Confidence == core.ConfidenceLow {
			continue
		}
		mean += m.Delay
		if m.ErrBound > worst {
			worst = m.ErrBound
		}
		n++
	}
	if n > 0 {
		mean /= units.Duration(n)
	}
	return mean, worst
}
