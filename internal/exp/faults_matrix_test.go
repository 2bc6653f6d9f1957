package exp

import (
	"testing"

	"element/internal/faults"
	"element/internal/units"
)

// matrixDuration keeps the full profile sweep affordable while leaving
// room for several flap/oscillation cycles of the path-chaos profiles.
const matrixDuration = 12 * units.Second

// TestFaultMatrixBoundedOrFlagged is the acceptance property of the fault
// subsystem: under every profile, each estimator sample is either within
// its self-reported error bound of trace ground truth or explicitly
// low-confidence. Degradation may widen bounds and lower confidence — it
// must never silently skew an estimate.
func TestFaultMatrixBoundedOrFlagged(t *testing.T) {
	for _, name := range faults.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run, err := RunDegraded(name, 7, matrixDuration)
			if err != nil {
				t.Fatal(err)
			}
			if run.Sender.Samples == 0 || run.Receiver.Samples == 0 {
				t.Fatalf("no samples: sender %d receiver %d", run.Sender.Samples, run.Receiver.Samples)
			}
			if run.Sender.Violations > 0 {
				t.Errorf("sender: %d of %d checked samples outside their bound (worst excess %s)",
					run.Sender.Violations, run.Sender.Checked, run.Sender.WorstExcess)
			}
			if run.Receiver.Violations > 0 {
				t.Errorf("receiver: %d of %d checked samples report phantom waiting beyond their bound (worst excess %s)",
					run.Receiver.Violations, run.Receiver.Checked, run.Receiver.WorstExcess)
			}
			// Flagging everything would satisfy the property vacuously; even
			// the nastiest composite profile must keep most samples usable.
			// Exception: with tcpi_bytes_acked hidden AND the MSS drifting,
			// B_est = segs·mss is wrong by the whole segment count times the
			// drift — unrecoverable from TCP_INFO, so flagging Low is the
			// correct (honest) outcome, not giving up.
			hopeless := run.Profile.Info.HideBytesAcked && run.Profile.Info.MSSDriftProb > 0
			if f := run.Sender.FlaggedShare(); f > 0.5 && !hopeless {
				t.Errorf("sender flagged fraction %.2f: estimator gave up instead of degrading", f)
			}
			t.Logf("sender: %d samples, %.1f%% flagged, %d checked; receiver: %d samples, %.1f%% flagged, %d checked; anomalies %d, faults %d",
				run.Sender.Samples, 100*run.Sender.FlaggedShare(), run.Sender.Checked,
				run.Receiver.Samples, 100*run.Receiver.FlaggedShare(), run.Receiver.Checked,
				run.Anomalies.Total(), run.FaultCount.Total())
		})
	}
}

// TestFaultMatrixCleanRunStaysConfident pins the no-faults baseline: the
// hardening must not tax a healthy kernel with spurious flags.
func TestFaultMatrixCleanRunStaysConfident(t *testing.T) {
	run, err := RunDegraded("none", 3, matrixDuration)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scenario.Inj != nil {
		t.Fatal("profile none must not build an injector")
	}
	if f := run.Sender.FlaggedShare(); f > 0.10 {
		t.Errorf("clean sender flagged fraction %.2f, want <= 0.10", f)
	}
	if f := run.Receiver.FlaggedShare(); f > 0.10 {
		t.Errorf("clean receiver flagged fraction %.2f, want <= 0.10", f)
	}
	if n := run.Anomalies.Backwards + run.Anomalies.ZeroFields + run.Anomalies.MSSChanges; n > 0 {
		t.Errorf("clean run recorded %d input anomalies", n)
	}
}

// TestFaultMatrixDeterministic asserts the whole degraded pipeline is a
// pure function of the seed: same seed → identical injector counts,
// identical tracker anomaly counters, identical sample logs.
func TestFaultMatrixDeterministic(t *testing.T) {
	for _, name := range []string{"everything", "flaky-path", "counter-chaos"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := RunDegraded(name, 42, matrixDuration)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunDegraded(name, 42, matrixDuration)
			if err != nil {
				t.Fatal(err)
			}
			if ac, bc := a.Scenario.Inj.Counts(), b.Scenario.Inj.Counts(); ac != bc {
				t.Errorf("injector counts diverge:\n  run A %v\n  run B %v", ac, bc)
			}
			if a.Anomalies != b.Anomalies {
				t.Errorf("anomaly counters diverge:\n  run A %+v\n  run B %+v", a.Anomalies, b.Anomalies)
			}
			la, lb := a.Flow.Sender.Estimates().Log(), b.Flow.Sender.Estimates().Log()
			if len(la) != len(lb) {
				t.Fatalf("sender log lengths diverge: %d vs %d", len(la), len(lb))
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("sender sample %d diverges: %+v vs %+v", i, la[i], lb[i])
				}
			}
			c, err := RunDegraded(name, 43, matrixDuration)
			if err != nil {
				t.Fatal(err)
			}
			if a.Scenario.Inj.Counts() == c.Scenario.Inj.Counts() && a.FaultCount.Total() > 0 {
				t.Errorf("different seeds produced identical injector counts %v", a.FaultCount)
			}
		})
	}
}
