package waterfall_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"element/internal/aqm"
	"element/internal/exp"
	"element/internal/telemetry"
	"element/internal/testutil"
	"element/internal/units"
	"element/internal/waterfall"
)

// fig2Scenario is the paper's Figure 2 setup: three cubic bulk flows on the
// controlled 10 Mbps / 25 ms-OWD testbed path with a deep default FIFO,
// where the sender's auto-tuned socket buffer — not the network — dominates
// end-to-end delay.
func fig2Scenario(t *testing.T, wf *waterfall.Waterfall, telem *telemetry.Telemetry) *exp.Scenario {
	t.Helper()
	return exp.RunScenario(exp.ScenarioConfig{
		Seed:      42,
		Rate:      10 * units.Mbps,
		RTT:       50 * units.Millisecond,
		Disc:      aqm.KindFIFO,
		Duration:  30 * units.Second,
		Flows:     []exp.FlowSpec{{}, {}, {}},
		Waterfall: wf,
		Telemetry: telem,
	})
}

// TestFig2Attribution is the headline acceptance check: on the fig2 path
// the per-stage residencies sum to the end-to-end per-byte delay within
// 1%, the sndbuf stage dominates, and the three-component grouping
// reconciles against the ground-truth trace.
func TestFig2Attribution(t *testing.T) {
	testutil.NoLeaks(t)
	wf := waterfall.New()
	telem := telemetry.New()
	s := fig2Scenario(t, wf, telem)
	fr := s.Flows[0]
	b := fr.WF.Breakdown()

	if b.Ranges == 0 || b.Bytes < 1<<20 {
		t.Fatalf("waterfall saw too little traffic: %d ranges, %d bytes", b.Ranges, b.Bytes)
	}
	if b.Residual > 0.01 {
		t.Errorf("stage-sum residual %.4f%% exceeds 1%%", b.Residual*100)
	}
	snd := b.Stage[waterfall.StageSndbuf]
	if snd.Share <= 0.5 {
		t.Errorf("sndbuf share = %.2f%%, want dominant (>50%%)", snd.Share*100)
	}
	for st := waterfall.Stage(1); st < waterfall.NumStages; st++ {
		if sh := b.Stage[st].Share; sh >= snd.Share {
			t.Errorf("stage %s share %.2f%% >= sndbuf share %.2f%%", st, sh*100, snd.Share*100)
		}
	}
	// Every queueing stage must be visible: the bottleneck queue and the
	// wire both hold bytes for a measurable time on this path.
	if b.Stage[waterfall.StageQueue].Mean <= 0 {
		t.Errorf("queue stage recorded no residency")
	}
	if b.Stage[waterfall.StageWire].Mean < 25*units.Millisecond/2 {
		t.Errorf("wire stage mean %s implausibly below propagation delay", b.Stage[waterfall.StageWire].Mean)
	}

	// Reconcile against the paper's three components from ground truth.
	rec := b.Reconcile(fr.GT.SenderDelay(), fr.GT.NetworkDelay(), fr.GT.ReceiverDelay(), nil, nil)
	if !rec.HaveGroundTruth {
		t.Fatal("reconciliation missing ground truth")
	}
	relClose := func(name string, got, want units.Duration, tol float64) {
		if want <= 0 {
			return
		}
		diff := float64(got - want)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(want) > tol {
			t.Errorf("%s: waterfall %s vs ground truth %s (> %.0f%% apart)", name, got, want, tol*100)
		}
	}
	// Sender-side and network components must agree with ground truth;
	// tails differ (the trace samples at transmit, the waterfall at read),
	// so the tolerance is loose but still catches attribution errors.
	relClose("sender", rec.Sender, rec.GTSender, 0.20)
	relClose("network", rec.Network, rec.GTNetwork, 0.25)
	relClose("receiver", rec.Receiver, rec.GTReceiver, 0.10)

	// Instrumentation: stage histograms must land in the registry.
	var buf bytes.Buffer
	if err := telem.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{
		`element_sndbuf_seconds_count{component="waterfall"}`,
		`element_e2e_seconds_count{component="waterfall"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("telemetry snapshot missing %q", want)
		}
	}
}

// chromeDoc mirrors the trace_event JSON array format for validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestChromeExportValid asserts the -waterfall chrome export is loadable
// JSON whose duration spans are non-negative with monotone boundaries.
func TestChromeExportValid(t *testing.T) {
	wf := waterfall.New()
	fig2Scenario(t, wf, nil)

	var buf bytes.Buffer
	if err := wf.Export(&buf, waterfall.FormatChrome); err != nil {
		t.Fatalf("Export(chrome): %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var spans, metas int
	stageNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Ts < 0 {
				t.Fatalf("span %q has negative ts %g", ev.Name, ev.Ts)
			}
			if ev.Dur < 0 {
				t.Fatalf("span %q has negative dur %g", ev.Name, ev.Dur)
			}
			if ev.Tid < 1 || ev.Tid > waterfall.NumStages {
				t.Fatalf("span %q on unknown stage track %d", ev.Name, ev.Tid)
			}
		case "M":
			metas++
			if ev.Name == "thread_name" {
				if n, ok := ev.Args["name"].(string); ok {
					stageNames[n] = true
				}
			}
		}
	}
	if spans == 0 {
		t.Fatal("chrome export contains no duration spans")
	}
	for st := waterfall.Stage(0); st < waterfall.NumStages; st++ {
		if !stageNames[st.String()] {
			t.Errorf("chrome export missing %s stage track metadata", st)
		}
	}

	// JSONL: every line valid JSON, span boundaries monotone.
	buf.Reset()
	if err := wf.Export(&buf, waterfall.FormatJSONL); err != nil {
		t.Fatalf("Export(jsonl): %v", err)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Type  string  `json:"type"`
			FromS float64 `json:"from_s"`
			ToS   float64 `json:"to_s"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", lines, err)
		}
		if rec.Type == "span" && rec.ToS < rec.FromS {
			t.Fatalf("jsonl span with to_s %g < from_s %g", rec.ToS, rec.FromS)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("jsonl export is empty")
	}

	// ASCII: table present with every stage row.
	buf.Reset()
	if err := wf.Export(&buf, waterfall.FormatASCII); err != nil {
		t.Fatalf("Export(ascii): %v", err)
	}
	out := buf.String()
	for _, want := range []string{"flow 1:", "sndbuf", "rcvbuf", "end-to-end", "waterfall ("} {
		if !strings.Contains(out, want) {
			t.Errorf("ascii report missing %q", want)
		}
	}
}

// TestLossyPathRetxAttribution asserts that on a lossy path the waterfall
// books retransmit wait into the retx stage and records wire drops, while
// the stage sum stays exact.
func TestLossyPathRetxAttribution(t *testing.T) {
	wf := waterfall.New()
	s := exp.RunScenario(exp.ScenarioConfig{
		Seed:      7,
		Rate:      10 * units.Mbps,
		RTT:       50 * units.Millisecond,
		LossRate:  0.02,
		Duration:  15 * units.Second,
		Flows:     []exp.FlowSpec{{}},
		Waterfall: wf,
	})
	b := s.Flows[0].WF.Breakdown()
	if b.Ranges == 0 {
		t.Fatal("no ranges finalized")
	}
	if b.Residual > 0.01 {
		t.Errorf("stage-sum residual %.4f%% exceeds 1%% under loss", b.Residual*100)
	}
	if b.Stage[waterfall.StageRetx].ByteSeconds <= 0 {
		t.Error("retx stage empty despite 2% loss")
	}
	if b.WireDrops == 0 {
		t.Error("no wire drops recorded despite random loss")
	}
	// Spans of retransmitted ranges must carry their delivery generation.
	gen := 0
	for _, sp := range s.Flows[0].WF.Spans() {
		if sp.Gen > 0 {
			gen++
		}
	}
	if gen == 0 {
		t.Error("no spans with retransmit generation > 0")
	}
}

// TestDeterministicBreakdown asserts the attribution is bit-identical
// across runs with the same seed (the waterfall must not perturb or
// nondeterministically observe the simulation).
func TestDeterministicBreakdown(t *testing.T) {
	run := func() waterfall.Breakdown {
		wf := waterfall.New()
		s := fig2Scenario(t, wf, nil)
		return s.Flows[0].WF.Breakdown()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("breakdown differs across identical seeds:\n%+v\n%+v", a, b)
	}
}

// TestZeroCostWhenDetached asserts a scenario without a waterfall attaches
// no recorders (the zero-cost discipline shared with telemetry).
func TestZeroCostWhenDetached(t *testing.T) {
	testutil.NoLeaks(t)
	s := exp.RunScenario(exp.ScenarioConfig{
		Seed:     1,
		Rate:     50 * units.Mbps,
		RTT:      10 * units.Millisecond,
		Duration: 2 * units.Second,
		Flows:    []exp.FlowSpec{{}},
	})
	if s.Flows[0].WF != nil {
		t.Fatal("recorder attached without a waterfall configured")
	}
	var wf *waterfall.Waterfall
	if err := wf.Export(&bytes.Buffer{}, waterfall.FormatChrome); err != nil {
		t.Fatalf("nil waterfall Export: %v", err)
	}
	if wf.Aggregate().Ranges != 0 {
		t.Fatal("nil waterfall aggregate non-empty")
	}
}

// TestJoinOnlyCountsMarkers runs one lossy shape — a 150-packet FIFO that
// tail-drops, random loss on the wire, and a send buffer that auto-tunes
// past the marker cap — under a kept waterfall and a join-only one. The
// join-only recorders keep no marker, yet each Breakdown must equal the
// kept one's, less the ranges that one retains: drops counted by kind,
// resizes counted up to the cap and the rest lost, as the kept recorder
// counts what it keeps.
func TestJoinOnlyCountsMarkers(t *testing.T) {
	run := func(wf *waterfall.Waterfall) []*waterfall.Recorder {
		exp.RunScenario(exp.ScenarioConfig{
			Seed: 3, Rate: 20 * units.Mbps, RTT: 40 * units.Millisecond,
			Disc: aqm.KindFIFO, QueuePackets: 150, LossRate: 0.00005,
			Duration: 12 * units.Second, Flows: []exp.FlowSpec{{}},
			Waterfall: wf,
		})
		return wf.Flows()
	}
	kept, join := run(waterfall.New()), run(waterfall.NewJoinOnly())
	if len(kept) != 1 || len(join) != 1 {
		t.Fatalf("%d kept recorders, %d join-only, want 1 each", len(kept), len(join))
	}
	want := kept[0].Breakdown()
	if want.QueueDrops == 0 || want.WireDrops == 0 || len(kept[0].Resizes()) != want.Resizes ||
		want.Resizes < 4096 || want.LostMarkers == 0 {
		t.Fatalf("the kept recorder counts %d queue drops, %d wire drops, %d resizes, %d lost markers: the shape shows nothing",
			want.QueueDrops, want.WireDrops, want.Resizes, want.LostMarkers)
	}
	want.Retained = 0
	if got := join[0].Breakdown(); got != want {
		t.Fatalf("join-only breakdown\n%+v\nkept, less its retained ranges\n%+v", got, want)
	}
	if d, z := len(join[0].Drops()), len(join[0].Resizes()); d+z != 0 {
		t.Fatalf("the join-only recorder holds %d drops, %d resizes", d, z)
	}
}
