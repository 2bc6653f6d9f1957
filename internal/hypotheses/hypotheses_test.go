package hypotheses

import (
	"strings"
	"testing"
)

// The harness's own correctness net. These tests run reduced scopes (two
// seeds, one or two hypotheses) so the tier-1 suite stays fast; `make
// conformance` exercises the full registry.

// testSeeds keeps harness unit tests cheap while still exercising the
// multi-seed path.
var testSeeds = []int64{1, 2}

// evaluate runs one hypothesis through the conformance runner at
// testSeeds in short mode and returns its finding.
func evaluate(t *testing.T, h Hypothesis) *Finding {
	t.Helper()
	rep, err := Run(Config{Seeds: testSeeds, Short: true, Hypotheses: []string{h.Name}, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Findings[0]
}

// TestPerturbedPhysicsFailsGate is the gate's reason to exist: doubling
// one stage's delay through the test hook must flip that hypothesis to
// Refuted while an untouched stage stays Corroborated.
func TestPerturbedPhysicsFailsGate(t *testing.T) {
	if Perturb != nil {
		t.Fatal("Perturb hook already set")
	}
	Perturb = func(stage string, y float64) float64 {
		if stage == "wire" {
			return 2 * y
		}
		return y
	}
	defer func() { Perturb = nil }()

	f := evaluate(t, hWireAffine)
	if f.Corroborated() {
		t.Fatalf("doubled wire delay still corroborated: %+v", f)
	}
	found := false
	for _, fail := range f.Failures {
		if strings.Contains(fail, "slope") {
			found = true
		}
	}
	if !found {
		t.Fatalf("doubling the wire delay must fail the slope band, failures: %v", f.Failures)
	}
	if md := f.Markdown("short", testSeeds); !strings.Contains(md, "**Status:** Refuted") {
		t.Fatal("refuted finding not rendered as Refuted")
	}

	// The same perturbed run must not refute a stage the hook left alone.
	if g := evaluate(t, hRcvbufPaced); !g.Corroborated() {
		t.Fatalf("untouched rcvbuf stage refuted under wire perturbation: %v", g.Failures)
	}
}

// TestWireHypothesisCorroborated pins one cheap hypothesis end to end in
// the tier-1 suite: unperturbed physics must corroborate.
func TestWireHypothesisCorroborated(t *testing.T) {
	f := evaluate(t, hWireAffine)
	if !f.Corroborated() {
		t.Fatalf("wire hypothesis refuted: %v", f.Failures)
	}
	if f.Fit.R2 < f.Checks.MinR2 {
		t.Fatalf("R² = %v below %v", f.Fit.R2, f.Checks.MinR2)
	}
	md := f.Markdown("short", testSeeds)
	for _, want := range []string{"# h-wire-affine", "**Status:** Corroborated", "## Experiment Design", "## Fit", "## Observations"} {
		if !strings.Contains(md, want) {
			t.Fatalf("FINDINGS.md missing %q:\n%s", want, md)
		}
	}
}

// TestCalibrationCellComposedDegradations pins that every calibration run
// actually exercises the PR-8 degradation paths: the composed Shed must
// register on both trackers and the run must stay bounded-or-flagged.
func TestCalibrationCellComposedDegradations(t *testing.T) {
	cell, err := calibrateCell("stale-info", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Sheds < 2 {
		t.Fatalf("Sheds = %d, want ≥ 2 (sender + receiver)", cell.Sheds)
	}
	if cell.SenderViolations+cell.ReceiverViolations != 0 {
		t.Fatalf("bound violations under stale-info: snd %d rcv %d",
			cell.SenderViolations, cell.ReceiverViolations)
	}
	total := 0
	for _, n := range cell.Sender.Samples {
		total += n
	}
	if total == 0 {
		t.Fatal("sender coverage saw no checkable samples")
	}
}

// TestRegistryShape pins the acceptance floor: at least six hypotheses,
// covering every waterfall stage plus the auto-tuning law.
func TestRegistryShape(t *testing.T) {
	if len(Registry) < 6 {
		t.Fatalf("registry holds %d hypotheses, want ≥ 6", len(Registry))
	}
	stages := map[string]int{}
	for _, h := range Registry {
		stages[h.Stage]++
		if h.Name == "" || h.Law == "" || len(h.Design) == 0 || h.Collect == nil {
			t.Fatalf("hypothesis %+v underspecified", h.Name)
		}
	}
	for _, stage := range []string{"sndbuf", "retx", "queue", "wire", "reassembly", "rcvbuf"} {
		if stages[stage] == 0 {
			t.Fatalf("no hypothesis covers stage %q", stage)
		}
	}
	if stages["sndbuf"] < 2 {
		t.Fatal("sndbuf needs both the pinned-buffer and the auto-tuning law")
	}
	if _, err := Lookup("h-wire-affine"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestCalibrationProfilesExcludeSinkOnly pins the profile selection: all
// estimator-relevant profiles, no sink-side ones.
func TestCalibrationProfilesExcludeSinkOnly(t *testing.T) {
	profs := CalibrationProfiles()
	if len(profs) != 11 {
		t.Fatalf("calibration profiles = %d (%v), want 11", len(profs), profs)
	}
	for _, p := range profs {
		if strings.HasSuffix(p, "-sink") {
			t.Fatalf("sink-side profile %q selected for estimator calibration", p)
		}
	}
}
