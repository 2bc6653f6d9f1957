package fleet

import (
	"bytes"
	"testing"

	"element/internal/faults"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
	"element/internal/waterfall"
)

// streamRules is the escalation policy the tests run: calibrated so that
// the default auto-tuned sender over the bufferbloat-deep FIFO trips it
// (windowed p99 sndbuf delay reaches 0.3–0.8 s) while a minimized sender
// stays well under (p99 ≤ ~0.08 s).
var streamRules = stream.Rules{P99Above: 200 * units.Millisecond}

// TestFleetStreamShardCountInvariance is the streaming counterpart of the
// golden determinism check: the windowed text export — every quantile of
// every window — and the escalation counters must be byte-identical
// whether the fleet runs on one shard or many. This is what licenses the
// barrier-driven sealing design: sealed window sequences are a pure
// function of barrier times, and sketch merges are exact.
func TestFleetStreamShardCountInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	prof, err := faults.ByName("stale-info")
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) (*Result, []byte) {
		var buf bytes.Buffer
		cfg := testConfig(29, 10)
		cfg.Faults = &prof
		cfg.Shards = shards
		cfg.Waterfall = waterfall.New() // exercise the escalation hook gate
		cfg.Stream = &StreamConfig{
			Window: 500 * units.Millisecond,
			Rules:  streamRules,
			Sink:   stream.NewTextExporter(&buf),
		}
		return New(cfg).Run(), buf.Bytes()
	}
	want, wantOut := run(1)
	if want.StreamWindows == 0 {
		t.Fatal("no windows exported")
	}
	if want.StreamDropped != 0 {
		t.Fatalf("sealed-queue overflow in a barrier-drained run: %d windows dropped", want.StreamDropped)
	}
	for _, shards := range []int{2, 4, 7} {
		got, gotOut := run(shards)
		if got.StreamWindows != want.StreamWindows || got.StreamLate != want.StreamLate ||
			got.Escalations != want.Escalations || got.Demotions != want.Demotions ||
			got.Escalated != want.Escalated {
			t.Fatalf("shards=%d stream counters diverge:\n  1: win=%d late=%d esc=%d dem=%d live=%d\n  %d: win=%d late=%d esc=%d dem=%d live=%d",
				shards, want.StreamWindows, want.StreamLate, want.Escalations, want.Demotions, want.Escalated,
				shards, got.StreamWindows, got.StreamLate, got.Escalations, got.Demotions, got.Escalated)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("shards=%d stream export differs from shards=1 (%d vs %d bytes)",
				shards, len(wantOut), len(gotOut))
		}
		for i := range want.Conns {
			cw, cg := want.Conns[i], got.Conns[i]
			if cg.Escalations != cw.Escalations || cg.Demotions != cw.Demotions || cg.Escalated != cw.Escalated {
				t.Fatalf("shards=%d conn %d escalation state diverges: %+v vs %+v", shards, i, cw, cg)
			}
		}
	}
}

// TestFleetStreamEscalatesOnBloatNotClean is the end-to-end escalation
// story: the same fleet, same seed, same rules — the run whose senders
// bloat their sndbuf (auto-tuning over a deep FIFO) must escalate at
// least one flow to full waterfall tracing, and the run whose senders are
// delay-minimized must escalate none and record no byte ranges at all.
func TestFleetStreamEscalatesOnBloatNotClean(t *testing.T) {
	testutil.NoLeaks(t)
	run := func(minimize bool) (*Result, *waterfall.Waterfall) {
		wf := waterfall.New()
		cfg := Config{
			Seed:        37,
			Connections: 6,
			Duration:    6 * units.Second,
			Minimize:    minimize,
			Waterfall:   wf,
			Stream: &StreamConfig{
				Window: 500 * units.Millisecond,
				Rules:  streamRules,
			},
		}
		return New(cfg).Run(), wf
	}
	bloat, bloatWF := run(false)
	if bloat.Escalations == 0 {
		t.Fatalf("bufferbloat run escalated no flows: %v", bloat)
	}
	if agg := bloatWF.Aggregate(); agg.Ranges == 0 {
		t.Fatal("escalated flows recorded no waterfall byte ranges")
	}
	// Escalated flows regain the full per-sample series; the fleet keeps
	// it only for them.
	sawSeries := false
	for _, c := range bloat.Conns {
		if c.Escalations > 0 && c.SndLog.Len() > 0 {
			sawSeries = true
		}
		if c.Escalations == 0 && c.Demotions == 0 && c.SndLog.Len() != 0 {
			t.Fatalf("conn %d never escalated but retained %d samples", c.ID, c.SndLog.Len())
		}
	}
	if !sawSeries {
		t.Fatal("no escalated flow retained its measurement series")
	}

	clean, cleanWF := run(true)
	if clean.Escalations != 0 {
		t.Fatalf("minimized run escalated %d times (threshold %v miscalibrated?)", clean.Escalations, streamRules.P99Above)
	}
	if agg := cleanWF.Aggregate(); agg.Ranges != 0 {
		t.Fatalf("clean run recorded %d byte ranges with every hook gate closed", agg.Ranges)
	}
	for _, c := range clean.Conns {
		if c.SndLog.Len() != 0 || c.RcvLog.Len() != 0 {
			t.Fatalf("clean-run conn %d retained %d/%d samples in stream mode",
				c.ID, c.SndLog.Len(), c.RcvLog.Len())
		}
	}
}

// TestFleetStreamMemoryBounded checks the stream-mode memory contract:
// no per-connection series, no ground-truth collectors, and a sealed
// window count that is a function of the run duration — not of how many
// samples flowed through.
func TestFleetStreamMemoryBounded(t *testing.T) {
	testutil.NoLeaks(t)
	var windows, samples uint64
	cfg := testConfig(41, 8)
	cfg.Stream = &StreamConfig{
		Window: units.Second,
		Sink: stream.SinkFunc(func(names []string, w *stream.Window) error {
			windows++
			samples += w.Samples
			if len(names) != len(w.Sketches) {
				t.Errorf("window %d: %d names vs %d sketches", w.Index, len(names), len(w.Sketches))
			}
			return nil
		}),
	}
	res := New(cfg).Run()
	wantWindows := uint64(cfg.Duration/units.Second) + 1 // windows 0..final inclusive
	if res.StreamWindows != wantWindows || windows != wantWindows {
		t.Fatalf("windows = %d (sink saw %d), want %d", res.StreamWindows, windows, wantWindows)
	}
	if samples == 0 {
		t.Fatal("no samples reached the stream")
	}
	for _, c := range res.Conns {
		if c.SndLog.Len() != 0 || c.RcvLog.Len() != 0 {
			t.Fatalf("conn %d retained a series in stream mode", c.ID)
		}
	}
	// Without escalation rules there is no escalation state at all.
	if res.Escalations != 0 || res.Escalated != 0 {
		t.Fatalf("escalations without rules: %v", res)
	}
}

// TestFleetStreamSeriesNamesStable pins the exported series set: tracker
// delays first, then the waterfall stages in pipeline order, then e2e.
func TestFleetStreamSeriesNamesStable(t *testing.T) {
	testutil.NoLeaks(t)
	var got []string
	cfg := testConfig(43, 2)
	cfg.Waterfall = waterfall.New()
	cfg.Stream = &StreamConfig{
		Sink: stream.SinkFunc(func(names []string, w *stream.Window) error {
			got = names
			return nil
		}),
	}
	if res := New(cfg).Run(); res.StreamErr != nil {
		t.Fatal(res.StreamErr)
	}
	want := []string{"snd_delay", "rcv_delay",
		"sndbuf_delay", "retx_delay", "queue_delay", "wire_delay",
		"reassembly_delay", "rcvbuf_delay", "e2e_delay"}
	if len(got) != len(want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
