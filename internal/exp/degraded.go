package exp

import (
	"fmt"

	"element/internal/core"
	"element/internal/faults"
	"element/internal/units"
)

// This file runs ELEMENT's estimators under every built-in fault profile
// and checks the bounded-or-flagged contract: each sample either stays
// within its self-reported error bound of trace ground truth or is
// explicitly marked low-confidence — degraded input must never produce a
// silently-wrong estimate.
// The checkers live in internal/core (core/bounds.go).

// DegradedRun is the outcome of one fault profile's scenario.
type DegradedRun struct {
	Profile    faults.Profile
	Scenario   *Scenario
	Flow       *FlowResult
	Sender     core.BoundCheck
	Receiver   core.BoundCheck
	Anomalies  core.AnomalyCounts // sender + receiver trackers combined
	FaultCount faults.Counts
}

// RunDegraded executes one fault profile on the standard controlled
// testbed (10 Mbps, 50 ms RTT, one ELEMENT flow) and evaluates the
// bounded-or-flagged contract.
func RunDegraded(profile string, seed int64, duration units.Duration) (*DegradedRun, error) {
	prof, err := faults.ByName(profile)
	if err != nil {
		return nil, err
	}
	if duration <= 0 {
		duration = 20 * units.Second
	}
	s := RunScenario(ScenarioConfig{
		Seed:         seed,
		Rate:         10 * units.Mbps,
		RTT:          50 * units.Millisecond,
		QueuePackets: wanQueueFor(10 * units.Mbps),
		Duration:     duration,
		Flows:        []FlowSpec{{Element: true}},
		Faults:       &prof,
	})
	fr := s.Flows[0]
	run := &DegradedRun{Profile: prof, Scenario: s, Flow: fr, FaultCount: s.Inj.Counts()}
	run.Sender, _ = core.CheckSenderLog(fr.Sender.Estimates().Packed(), fr.GT.SenderLog(), 0)
	run.Receiver, _ = core.CheckReceiverLog(fr.Receiver.Estimates().Packed(), fr.GT.ReceiverLog())
	run.Anomalies = fr.Sender.Tracker.Anomalies()
	run.Anomalies.Add(fr.Receiver.Tracker.Anomalies())
	return run, nil
}

// Degraded reproduces the degraded-mode table: every built-in fault
// profile against ground truth, reporting estimator sample counts,
// flagged fractions, bound violations, anomaly totals and goodput.
func Degraded(seed int64, duration units.Duration) *Result {
	res := &Result{
		ID:    "degraded",
		Title: "Estimator robustness under fault injection",
		Header: []string{"profile", "snd samples", "snd flagged%", "snd violations",
			"rcv samples", "rcv flagged%", "rcv violations", "anomalies", "faults", "goodput Mbps"},
	}
	for _, name := range faults.Names() {
		run, err := RunDegraded(name, seed, duration)
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", run.Sender.Samples),
			fmt.Sprintf("%.1f", 100*run.Sender.FlaggedShare()),
			fmt.Sprintf("%d", run.Sender.Violations),
			fmt.Sprintf("%d", run.Receiver.Samples),
			fmt.Sprintf("%.1f", 100*run.Receiver.FlaggedShare()),
			fmt.Sprintf("%d", run.Receiver.Violations),
			fmt.Sprintf("%d", run.Anomalies.Total()),
			fmt.Sprintf("%d", run.FaultCount.Total()),
			fmtMbps(run.Flow.GoodputBps),
		})
	}
	res.Notes = append(res.Notes,
		"bounded-or-flagged: every non-low-confidence sample must sit within its reported error bound of trace ground truth; violations should be 0",
		"receiver bound is one-sided (no phantom waiting beyond the recent true maximum); underestimates are inherent to Algorithm 2's conservative matching")
	return res
}
