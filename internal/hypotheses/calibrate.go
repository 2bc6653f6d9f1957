package hypotheses

import (
	"fmt"
	"strings"

	"element/internal/core"
	"element/internal/exp"
	"element/internal/faults"
	"element/internal/units"
)

// The bound-calibration harness: run ELEMENT under every estimator-relevant
// fault profile, compose the supervisor-driven degradations on top (a Shed
// mid-run and a folded outage, the PR-8 paths), and measure how often the
// self-reported error bounds actually cover ground truth, per confidence
// grade. The paper's bounded-or-flagged contract says high-confidence
// samples are trustworthy; this harness turns that into a number and gates
// on it.

// CalibTargets are the minimum empirical coverage fractions per grade.
// Low-confidence samples are explicitly disclaimed by the estimator, so
// their coverage is reported but never gated.
type CalibTargets struct {
	High   float64 `json:"high"`
	Medium float64 `json:"medium"`
}

// DefaultTargets gates high-confidence coverage at 90% and medium at 80%.
var DefaultTargets = CalibTargets{High: 0.90, Medium: 0.80}

// calibShed/calibOutage are the composed degradations: every calibration
// run sheds both trackers at 2 s (guard 200 ms) and folds a 300 ms outage
// at 3 s, so the widened-bound paths are inside the measured coverage.
const (
	calibShedAt    = 2 * units.Second
	calibShedGuard = 200 * units.Millisecond
	calibOutageAt  = 3 * units.Second
	calibOutage    = 300 * units.Millisecond
)

// CalibCell is one (profile, seed) calibration run.
type CalibCell struct {
	Profile            string
	Seed               int64
	Sender, Receiver   core.Coverage
	SenderViolations   int
	ReceiverViolations int
	Sheds              int
	Anomalies          int
	Faults             int
}

// CalibrationProfiles lists the estimator-relevant fault profiles: every
// built-in except the sink-side ones (wedged/flaky/flappy-sink), which
// degrade telemetry export rather than the estimators under test.
func CalibrationProfiles() []string {
	var out []string
	for _, name := range faults.Names() {
		if strings.HasSuffix(name, "-sink") {
			continue
		}
		out = append(out, name)
	}
	return out
}

// calibrateCell runs one profile × seed on the standard degraded testbed
// (10 Mbps, 50 ms RTT, one ELEMENT flow) with the Shed and FoldOutage
// composition, and tallies per-grade coverage for both trackers.
func calibrateCell(profile string, seed int64, short bool) (CalibCell, error) {
	prof, err := faults.ByName(profile)
	if err != nil {
		return CalibCell{}, err
	}
	duration := 8 * units.Second
	if short {
		duration = 5 * units.Second
	}
	s := exp.Build(exp.ScenarioConfig{
		Seed: seed, Rate: 10 * units.Mbps, RTT: 50 * units.Millisecond,
		QueuePackets: 100,
		Duration:     duration,
		Flows:        []exp.FlowSpec{{Element: true}},
		Faults:       &prof,
	})
	fr := s.Flows[0]
	s.Eng.Schedule(calibShedAt, func() {
		fr.Sender.Tracker.Shed(calibShedGuard)
		fr.Receiver.Tracker.Shed(calibShedGuard)
	})
	s.Eng.Schedule(calibOutageAt, func() {
		fr.Sender.Tracker.FoldOutage(calibOutage)
		fr.Receiver.Tracker.FoldOutage(calibOutage)
	})
	s.Run()

	sbc, scov := core.CheckSenderLog(fr.Sender.Estimates().Packed(), fr.GT.SenderLog(), 0)
	rbc, rcov := core.CheckReceiverLog(fr.Receiver.Estimates().Packed(), fr.GT.ReceiverLog())
	cell := CalibCell{
		Profile:            profile,
		Seed:               seed,
		Sender:             scov,
		Receiver:           rcov,
		SenderViolations:   sbc.Violations,
		ReceiverViolations: rbc.Violations,
	}
	anoms := fr.Sender.Tracker.Anomalies()
	anoms.Add(fr.Receiver.Tracker.Anomalies())
	cell.Sheds = anoms.Sheds
	cell.Anomalies = anoms.Total()
	if s.Inj != nil {
		cell.Faults = s.Inj.Counts().Total()
	}
	return cell, nil
}

// ProfileCalibration is one profile's tally merged across seeds.
type ProfileCalibration struct {
	Profile            string        `json:"profile"`
	Sender             core.Coverage `json:"sender"`
	Receiver           core.Coverage `json:"receiver"`
	SenderHigh         float64       `json:"sender_high_coverage"`
	SenderMedium       float64       `json:"sender_medium_coverage"`
	SenderLow          float64       `json:"sender_low_coverage"`
	ReceiverHigh       float64       `json:"receiver_high_coverage"`
	ReceiverMedium     float64       `json:"receiver_medium_coverage"`
	ReceiverLow        float64       `json:"receiver_low_coverage"`
	SenderViolations   int           `json:"sender_violations"`
	ReceiverViolations int           `json:"receiver_violations"`
	Sheds              int           `json:"sheds"`
	Anomalies          int           `json:"anomalies"`
	Faults             int           `json:"faults"`
	Failures           []string      `json:"failures,omitempty"`
}

// Calibration is the full harness verdict.
type Calibration struct {
	Targets  CalibTargets         `json:"targets"`
	Seeds    []int64              `json:"seeds"`
	Profiles []ProfileCalibration `json:"profiles"`
	Sender   core.Coverage        `json:"sender_total"`
	Receiver core.Coverage        `json:"receiver_total"`
	Pass     bool                 `json:"pass"`
	Failures []string             `json:"failures,omitempty"`
}

// judgeCalibration merges cells (grouped per profile, in profile order)
// and applies the per-profile coverage targets. Every profile must meet
// the high and medium targets on both trackers and report zero bound
// violations; the composed Shed must have registered on every run.
func judgeCalibration(profiles []string, seeds []int64, cells []CalibCell) *Calibration {
	cal := &Calibration{Targets: DefaultTargets, Seeds: append([]int64(nil), seeds...)}
	byProfile := map[string][]CalibCell{}
	for _, c := range cells {
		byProfile[c.Profile] = append(byProfile[c.Profile], c)
	}
	for _, name := range profiles {
		pc := ProfileCalibration{Profile: name}
		for _, c := range byProfile[name] {
			pc.Sender.Merge(c.Sender)
			pc.Receiver.Merge(c.Receiver)
			pc.SenderViolations += c.SenderViolations
			pc.ReceiverViolations += c.ReceiverViolations
			pc.Sheds += c.Sheds
			pc.Anomalies += c.Anomalies
			pc.Faults += c.Faults
		}
		pc.SenderHigh = pc.Sender.Fraction(core.ConfidenceHigh)
		pc.SenderMedium = pc.Sender.Fraction(core.ConfidenceMedium)
		pc.SenderLow = pc.Sender.Fraction(core.ConfidenceLow)
		pc.ReceiverHigh = pc.Receiver.Fraction(core.ConfidenceHigh)
		pc.ReceiverMedium = pc.Receiver.Fraction(core.ConfidenceMedium)
		pc.ReceiverLow = pc.Receiver.Fraction(core.ConfidenceLow)
		check := func(what string, got, want float64) {
			if got < want {
				pc.Failures = append(pc.Failures, fmt.Sprintf("%s coverage %.3f < target %.2f", what, got, want))
			}
		}
		check("sender high", pc.SenderHigh, DefaultTargets.High)
		check("sender medium", pc.SenderMedium, DefaultTargets.Medium)
		check("receiver high", pc.ReceiverHigh, DefaultTargets.High)
		check("receiver medium", pc.ReceiverMedium, DefaultTargets.Medium)
		if pc.SenderViolations+pc.ReceiverViolations > 0 {
			pc.Failures = append(pc.Failures, fmt.Sprintf("%d bound violations (bounded-or-flagged broken)",
				pc.SenderViolations+pc.ReceiverViolations))
		}
		if len(byProfile[name]) > 0 && pc.Sheds < 2*len(byProfile[name]) {
			pc.Failures = append(pc.Failures, fmt.Sprintf("composed sheds missing: %d < %d", pc.Sheds, 2*len(byProfile[name])))
		}
		cal.Sender.Merge(pc.Sender)
		cal.Receiver.Merge(pc.Receiver)
		cal.Profiles = append(cal.Profiles, pc)
		for _, f := range pc.Failures {
			cal.Failures = append(cal.Failures, name+": "+f)
		}
	}
	cal.Pass = len(cal.Failures) == 0 && len(cal.Profiles) > 0
	return cal
}
