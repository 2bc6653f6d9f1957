package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"element/internal/apps"
	"element/internal/aqm"
	"element/internal/core"
	"element/internal/reqtrace"
	"element/internal/stats"
	"element/internal/testutil"
	"element/internal/units"
	"element/internal/waterfall"
)

func fanoutConfig(seed int64, groups, deg int) Config {
	return Config{
		Seed:        seed,
		Connections: groups * deg,
		Duration:    3 * units.Second,
		Rate:        8 * units.Mbps,
		RTT:         20 * units.Millisecond,
		Fanout: &FanoutConfig{
			Degree:       deg,
			RPS:          120,
			RequestBytes: 512,
		},
	}
}

// TestFleetFanoutTraceComplete checks the tentpole joint end-to-end: a
// fan-out fleet completes requests, every completed request telescopes
// its stage decomposition to the end-to-end delay within 1%, a critical
// child is identified for every request, and the exact-vs-sketch
// quantile cross-check holds.
func TestFleetFanoutTraceComplete(t *testing.T) {
	testutil.NoLeaks(t)
	tr := reqtrace.New()
	cfg := fanoutConfig(11, 3, 4)
	cfg.Fanout.Tracer = tr
	res := New(cfg).Run()

	if res.Requests == 0 {
		t.Fatalf("no requests completed: %v", res)
	}
	if res.Requests != tr.Completed() {
		t.Fatalf("result requests %d != tracer completed %d", res.Requests, tr.Completed())
	}
	recs := tr.Records()
	if uint64(len(recs)) != res.Requests {
		t.Fatalf("retained %d records for %d requests", len(recs), res.Requests)
	}
	for i := range recs {
		r := &recs[i]
		if res := r.Residual(); res > 0.01 {
			t.Fatalf("request %d residual %.4f > 1%%: %+v", r.ID, res, r)
		}
		if r.Critical < 0 || int(r.Critical) >= int(r.Fanout) {
			t.Fatalf("request %d critical leg %d out of range (fanout %d)", r.ID, r.Critical, r.Fanout)
		}
		if r.Done < r.Issue {
			t.Fatalf("request %d done %v before issue %v", r.ID, r.Done, r.Issue)
		}
	}
	if tr.StrayBytes() != 0 {
		t.Fatalf("stray bytes: %d", tr.StrayBytes())
	}
	rp := tr.Report()
	if err := rp.CrossCheck(); err != nil {
		t.Fatalf("sketch cross-check: %v", err)
	}
	// Sibwait must be present for fanout > 1 (legs are never perfectly
	// synchronized), and the slowest span trees fully detailed.
	if rp.MeanStage[reqtrace.StageSibwait] <= 0 {
		t.Fatalf("fanout run has zero mean sibwait")
	}
	for _, st := range tr.Slowest() {
		if len(st.Legs) != int(st.Fanout) {
			t.Fatalf("span tree %d has %d legs, fanout %d", st.ID, len(st.Legs), st.Fanout)
		}
	}
}

// TestFleetFanoutShardInvariance is the fan-out determinism gate: the
// absorbed tracer's tail report must be byte-identical whether the
// groups run on one shard or several — same records, same sketches,
// same slow set — and the fleet's grades equal.
func TestFleetFanoutShardInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	run := func(shards int) (string, *Result) {
		tr := reqtrace.New()
		cfg := fanoutConfig(23, 4, 3)
		cfg.Fanout.Tracer = tr
		cfg.Shards = shards
		res := New(cfg).Run()
		var buf bytes.Buffer
		tr.Report().WriteTable(&buf)
		return buf.String(), res
	}
	want, wres := run(1)
	if wres.Sender.Checked == 0 || wres.Receiver.Checked == 0 {
		t.Fatalf("1 shard grades %+v %+v: the run shows nothing", wres.Sender, wres.Receiver)
	}
	for _, shards := range []int{2, 4} {
		got, gres := run(shards)
		if got != want {
			t.Fatalf("tail report differs at %d shards:\n--- 1 shard\n%s--- %d shards\n%s", shards, want, shards, got)
		}
		if gres.Requests != wres.Requests || gres.RequestsAbandoned != wres.RequestsAbandoned {
			t.Fatalf("request counts diverge at %d shards: %d/%d vs %d/%d",
				shards, gres.Requests, gres.RequestsAbandoned, wres.Requests, wres.RequestsAbandoned)
		}
		if gres.Sender != wres.Sender || gres.Receiver != wres.Receiver {
			t.Fatalf("grades diverge at %d shards: %+v %+v vs %+v %+v",
				shards, gres.Sender, gres.Receiver, wres.Sender, wres.Receiver)
		}
	}
}

// TestFleetFanoutArrivalProcesses smoke-tests the bursty and closed
// arrival processes end-to-end and checks the closed loop respects its
// concurrency window (outstanding at drain can never exceed it).
func TestFleetFanoutArrivalProcesses(t *testing.T) {
	testutil.NoLeaks(t)
	for _, kind := range []apps.ArrivalKind{apps.ArrivalBursty, apps.ArrivalClosed} {
		tr := reqtrace.New()
		cfg := fanoutConfig(31, 2, 3)
		cfg.Fanout.Arrivals = kind
		cfg.Fanout.Concurrency = 2
		cfg.Fanout.Tracer = tr
		res := New(cfg).Run()
		if res.Requests == 0 {
			t.Fatalf("%s: no requests completed", kind)
		}
		if kind == apps.ArrivalClosed {
			// 2 groups × window 2.
			if res.RequestsAbandoned > 4 {
				t.Fatalf("closed loop left %d outstanding, window is 4", res.RequestsAbandoned)
			}
		}
		if err := tr.Report().CrossCheck(); err != nil {
			t.Fatalf("%s: cross-check: %v", kind, err)
		}
	}
}

// TestFleetFanoutStreamSeries checks fan-out composes with the stream
// pipeline: the per-stage request series register on every shard in a
// fixed order and the merged export stays shard-count invariant (series
// count includes req_e2e plus the seven request stages).
func TestFleetFanoutStreamSeries(t *testing.T) {
	testutil.NoLeaks(t)
	run := func(shards int) []string {
		cfg := fanoutConfig(7, 2, 2)
		cfg.Shards = shards
		cfg.Stream = &StreamConfig{Window: 250 * units.Millisecond}
		f := New(cfg)
		f.Run()
		return f.pipe.names
	}
	names := run(1)
	found := 0
	for _, n := range names {
		if n == "req_e2e" || n == "req_sibwait" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("stream series missing request series: %v", names)
	}
	names2 := run(2)
	if len(names) != len(names2) {
		t.Fatalf("series names diverge across shard counts: %v vs %v", names, names2)
	}
}

// TestJoinOnlyWaterfallChangesNothing runs the fanout_rpc shape (8 groups
// of 8 backends over CoDel, two shards) with and without a caller's
// waterfall. Either way the shards' recorders are join-only, so the tail
// report, the span trees, every connection's result and its logs must be
// byte-identical. The recorders the caller's waterfall absorbs hold no
// span or marker, yet count the send-buffer resizes they saw.
func TestJoinOnlyWaterfallChangesNothing(t *testing.T) {
	testutil.NoLeaks(t)
	const degree, rps, legBytes = 8, 500, 256
	run := func(wf *waterfall.Waterfall) (*Result, string) {
		tr := reqtrace.New()
		res := New(Config{
			Seed: 1, Connections: 8 * degree, Duration: 2 * units.Second,
			Rate: units.Rate(float64(rps*legBytes*8) / 0.75), RTT: 20 * units.Millisecond,
			Disc: aqm.KindCoDel, Shards: 2, Waterfall: wf,
			Fanout: &FanoutConfig{Degree: degree, RPS: rps, RequestBytes: legBytes, Tracer: tr},
		}).Run()
		var out bytes.Buffer
		tr.Report().WriteTable(&out)
		if err := tr.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Conns {
			line := *c
			line.SndLog, line.RcvLog = stats.Log[core.Measurement]{}, stats.Log[core.Measurement]{}
			fmt.Fprintf(&out, "%+v\n", line)
		}
		return res, out.String()
	}
	wf := waterfall.New()
	wantRes, want := run(wf)
	gotRes, got := run(nil)
	if got != want {
		t.Fatalf("report, span trees or conn results differ without a waterfall:\n--- with\n%s--- without\n%s", want, got)
	}
	for i := range wantRes.Conns {
		if err := sameSeries(&wantRes.Conns[i].SndLog, &gotRes.Conns[i].SndLog); err != nil {
			t.Fatalf("conn %d sender series: %v", i, err)
		}
		if err := sameSeries(&wantRes.Conns[i].RcvLog, &gotRes.Conns[i].RcvLog); err != nil {
			t.Fatalf("conn %d receiver series: %v", i, err)
		}
	}

	if n := len(wf.Flows()); n != 8*degree {
		t.Fatalf("the caller's waterfall absorbed %d recorders, want %d", n, 8*degree)
	}
	for i, r := range wf.Flows() {
		if s, d, z := len(r.Spans()), len(r.Drops()), len(r.Resizes()); s+d+z != 0 {
			t.Errorf("absorbed recorder %d holds %d spans, %d drops, %d resizes", i, s, d, z)
		}
	}
	if agg := wf.Aggregate(); agg.Ranges == 0 || agg.Resizes == 0 || agg.Retained != 0 {
		t.Fatalf("absorbed recorders aggregate %d ranges, %d resizes, %d retained: want ranges and resizes counted, none retained",
			agg.Ranges, agg.Resizes, agg.Retained)
	}
}
