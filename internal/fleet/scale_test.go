package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"element/internal/overload"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
)

// scaleTestConfig is the shared mid-size scale config: enough flows and
// epochs that bursts, stalls, escalations and demotions all occur.
func scaleTestConfig(seed int64, flows int) ScaleConfig {
	return ScaleConfig{
		Seed:     seed,
		Flows:    flows,
		Duration: 8 * units.Second,
		Interval: 100 * units.Millisecond,
	}
}

// TestScaleShardCountInvariance is the scale-mode golden determinism
// check: the merged stream export — every quantile of every window —
// and the full result (escalations, demotions, governor ladder state,
// run-wide quantiles) must be byte-identical whether the run uses one
// shard or many. Everything a flow does is a pure function of (seed,
// flow id, time); this test is what catches any accidental coupling to
// shard layout: a shared RNG draw, map-iteration-order-dependent
// decisions, or a gate read racing a barrier.
func TestScaleShardCountInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	run := func(shards int) (*ScaleResult, []byte) {
		var buf bytes.Buffer
		cfg := scaleTestConfig(61, 300)
		cfg.Shards = shards
		cfg.Sink = stream.NewTextExporter(&buf)
		cfg.Overload = &overload.Config{
			Budgets: overload.Budgets{LiveFull: 8},
		}
		return NewScale(cfg).Run(), buf.Bytes()
	}
	want, wantOut := run(1)
	if want.Escalations == 0 {
		t.Fatal("no escalations; invariance over the promotion path is vacuous")
	}
	if want.Demotions == 0 {
		t.Fatal("no demotions; invariance over the demotion path is vacuous")
	}
	if want.Sheds == 0 {
		t.Fatal("governor shed nothing; ladder invariance is vacuous")
	}
	if want.StreamErr != nil {
		t.Fatal(want.StreamErr)
	}
	for _, shards := range []int{2, 5} {
		got, gotOut := run(shards)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d result diverges from shards=1:\n  1: %+v\n  %d: %+v", shards, want, shards, got)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("shards=%d stream export differs from shards=1 (%d vs %d bytes)",
				shards, len(wantOut), len(gotOut))
		}
	}
}

// TestScaleEscalationLifecycle exercises the two-phase story end to
// end on the synthetic workload: bursts and stalls promote flows to
// full trackers, clean windows demote them, the windowed rules veto
// lite false alarms, and the run-wide quantiles separate the tail from
// the median.
func TestScaleEscalationLifecycle(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := scaleTestConfig(17, 200)
	res := NewScale(cfg).Run()
	if res.StreamErr != nil {
		t.Fatal(res.StreamErr)
	}
	if res.Escalations == 0 {
		t.Fatal("synthetic bursts/stalls escalated no flows")
	}
	if res.Demotions == 0 {
		t.Fatal("no escalated flow was ever demoted by clean windows")
	}
	if res.TrackerPolls == 0 {
		t.Fatal("escalated flows drove no full-tracker polls")
	}
	if res.Flagged == 0 {
		t.Fatal("stall epochs produced no flagged lite samples")
	}
	if res.FalseAlarms > res.Demotions {
		t.Fatalf("false alarms %d exceed demotions %d", res.FalseAlarms, res.Demotions)
	}
	wantWindows := uint64(cfg.Duration/(500*units.Millisecond)) + 1
	if res.StreamWindows != wantWindows {
		t.Fatalf("stream windows = %d, want %d", res.StreamWindows, wantWindows)
	}
	if res.SndP50 <= 0 || res.SndP99 <= res.SndP50 {
		t.Fatalf("quantiles not separated: p50=%v p99=%v", res.SndP50, res.SndP99)
	}
	// The synthetic median delay is the 2–20 ms base band; the p99 is
	// burst/stall territory.
	if res.SndP50 > 0.05 {
		t.Fatalf("p50 = %v s, outside the base-delay band", res.SndP50)
	}
	if res.SndP99 < 0.03 {
		t.Fatalf("p99 = %v s, below burst territory", res.SndP99)
	}
	wantPolls := 2 * uint64(res.Flows) * uint64(cfg.Duration/cfg.Interval)
	if res.Polls+res.TrackerPolls < wantPolls*9/10 {
		t.Fatalf("polls %d (+%d tracker) below 90%% of nominal %d",
			res.Polls, res.TrackerPolls, wantPolls)
	}
}

// TestScaleGovernorBoundsEscalated pins the LiveFull contract at scale:
// with a budget and the barrier-written promotion gate, the escalated
// population can overshoot the budget by at most one slice's worth of
// in-flight promotions, and the governor records pressure-driven sheds.
func TestScaleGovernorBoundsEscalated(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := scaleTestConfig(23, 400)
	const budget = 6
	cfg.Overload = &overload.Config{Budgets: overload.Budgets{LiveFull: budget}}
	f := NewScale(cfg)
	end := units.Time(cfg.Duration)
	slice := cfg.slice()
	maxLive := 0
	prevLive := 0
	for now := units.Time(0); now < end; {
		next := now.Add(slice)
		if next > end {
			next = end
		}
		f.pipe.step(next)
		live := 0
		for _, sh := range f.shards {
			live += len(sh.full)
		}
		// The gate closes at the barrier where live >= budget; within
		// the next slice every flow polls at most slice/interval more
		// times, but only flows already streaking can slip through —
		// bound the overshoot by the previous census plus one slice of
		// promotions per flow is far looser than reality, so pin the
		// tight invariant instead: once the gate closed, live can only
		// have grown during the single slice that closed it.
		if prevLive >= budget && live > prevLive {
			t.Fatalf("escalated population grew %d → %d with the gate closed", prevLive, live)
		}
		if live > maxLive {
			maxLive = live
		}
		prevLive = live
		now = next
	}
	res := f.drain()
	if res.Escalations == 0 {
		t.Fatal("no escalations under budget pressure")
	}
	if maxLive < budget {
		t.Fatalf("escalated population peaked at %d, never reaching budget %d — gate untested", maxLive, budget)
	}
}

// TestScaleParkedFlowsSkipPolls parks every flow of a fleet that has no
// governor to reclaim them: the run must execute zero lite polls, count
// every suppressed poll, and still seal its (empty) stream windows on
// schedule. A snapshot cannot set this up: its tiers land only through a
// governor (TestParkedResumeWithoutGovernorPollsEveryFlow).
func TestScaleParkedFlowsSkipPolls(t *testing.T) {
	testutil.NoLeaks(t)
	f := NewScale(scaleTestConfig(5, 50))
	for _, sh := range f.shards {
		for slot := range sh.tier {
			sh.tier[slot] = uint8(overload.TierParked)
		}
	}
	res := f.Run()
	if res.Polls != 0 {
		t.Fatalf("parked fleet executed %d lite polls", res.Polls)
	}
	if res.ParkedSkips == 0 {
		t.Fatal("no parked skips counted")
	}
	if res.StreamWindows == 0 {
		t.Fatal("parked fleet sealed no windows")
	}
	if res.Escalations != 0 {
		t.Fatalf("parked fleet escalated %d flows", res.Escalations)
	}
}

// TestScaleSnapshotResumeRehomes captures a snapshot from a 3-shard run
// and restores it at other shard counts: every flow's tier must land by
// id, every escalated flow must come back as a full tracker on its new
// shard, and trackers with parseable checkpoints count as Restores.
func TestScaleSnapshotResumeRehomes(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := scaleTestConfig(61, 120)
	cfg.Shards = 3
	cfg.Overload = &overload.Config{Budgets: overload.Budgets{LiveFull: 8}}
	f := NewScale(cfg)
	f.Run()
	snap := f.Snapshot()
	if len(snap.Conns) == 0 {
		t.Fatal("run ended with no escalated flows; re-homing test is vacuous")
	}
	for _, shards := range []int{1, 4} {
		rcfg := cfg
		rcfg.Shards = shards
		rcfg.Resume = snap
		rf := NewScale(rcfg)
		gotFull := 0
		for _, sh := range rf.shards {
			for slot := range sh.full {
				gotFull++
				if overload.Tier(sh.tier[slot]) >= overload.TierCounters {
					t.Fatalf("shards=%d: escalated slot %d resumed in degraded tier %d", shards, slot, sh.tier[slot])
				}
			}
			for slot, tier := range sh.tier {
				if want := snap.Tiers[sh.ids[slot]]; overload.Tier(tier) != want {
					t.Fatalf("shards=%d flow %d resumed in tier %d, want %d", shards, sh.ids[slot], tier, want)
				}
			}
		}
		if gotFull != len(snap.Conns) {
			t.Fatalf("shards=%d: %d escalated flows re-homed, snapshot had %d", shards, gotFull, len(snap.Conns))
		}
		if rf.restores != len(snap.Conns) {
			t.Fatalf("shards=%d: %d restores for %d checkpointed trackers", shards, rf.restores, len(snap.Conns))
		}
		res := rf.Run()
		if res.Restores != len(snap.Conns) {
			t.Fatalf("shards=%d: result reports %d restores, want %d", shards, res.Restores, len(snap.Conns))
		}
	}
}

// TestScaleZeroAllocSteadyState pins the hot path's allocation
// contract: after the one barrier step that builds the stream rings and
// merge windows, a full step — the scheduled sweeps, batched lite polls,
// sketch observation, seal and merge — allocates nothing, whatever the
// fleet's size.
func TestScaleZeroAllocSteadyState(t *testing.T) {
	for _, flows := range []int{2000, 40_000} {
		cfg := ScaleConfig{
			Seed:          7,
			Flows:         flows,
			Duration:      60 * units.Second,
			Interval:      100 * units.Millisecond,
			Shards:        1,  // the parallel advance spawns goroutines; pin the inline barrier
			EscalateAbove: -1, // promotions allocate by design; pin the lite plane
		}
		f := NewScale(cfg)
		slice := f.cfg.slice()
		now := units.Time(0)
		step := func() {
			now = now.Add(slice)
			f.pipe.step(now)
		}
		step()
		if allocs := testing.AllocsPerRun(8, step); allocs != 0 {
			t.Fatalf("%d flows: steady-state barrier step allocates %.1f times", flows, allocs)
		}
	}
}

// scaleHeapPerFlow is TestScaleHeapPerFlow's bound on the heap one
// monitored flow holds at the end of a run with escalation on. A
// drained fleet holds about 214 B a flow (480 B while the escalated
// trackers kept their drained estimate logs, 887 B while it kept the
// lite columns, the governor and the escalators).
const scaleHeapPerFlow = 300

// TestScaleHeapPerFlow pins what a drained scale fleet costs per flow
// with escalation on: 100 k flows, the governor bounding the escalated
// population as in TestScaleMillionMonitors, and the heap in use after
// the run — fleet and result still referenced — divided by the flows.
// What stays is what Snapshot reads: each flow's id and tier, and the
// full trackers of the flows still escalated, about 5 000 here.
func TestScaleHeapPerFlow(t *testing.T) {
	const flows = 100_000
	cfg := ScaleConfig{
		Seed:     2024,
		Flows:    flows,
		Duration: 2 * units.Second,
		Interval: 100 * units.Millisecond,
		Shards:   2,
		Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: 4096}},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewScale(cfg)
	res := f.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	if res.Escalations == 0 {
		t.Fatal("no escalations: the pin needs escalation on")
	}
	perFlow := float64(after.HeapInuse-min(before.HeapInuse, after.HeapInuse)) / flows
	t.Logf("%.0f B/flow in use after the run (%d escalations, %d retained samples)", perFlow, res.Escalations, res.RetainedSamples)
	if perFlow > scaleHeapPerFlow {
		t.Fatalf("%.0f B/flow in use after the run, bound %d", perFlow, scaleHeapPerFlow)
	}
}

// naiveSchedule is the timer queue the static schedule replaces, at its
// most literal: every flow holds one deadline tick and the sequence
// number of the arm that set it; a tick fires the flows due at it in arm
// order, and each fired flow re-arms one period on.
type naiveSchedule struct {
	ids    []int32
	next   []int64
	seq    []int
	arms   int
	period int64
}

func newNaiveSchedule(cfg ScaleConfig, shard int) *naiveSchedule {
	n := &naiveSchedule{period: cfg.period()}
	g := int64(cfg.gran())
	for id := shard; id < cfg.Flows; id += cfg.Shards {
		first := int64(synthParams(cfg.Seed, int32(id)).hash%uint64(cfg.Interval)) + g
		n.ids = append(n.ids, int32(id))
		n.next = append(n.next, (first+g-1)/g)
		n.seq = append(n.seq, n.arms)
		n.arms++
	}
	return n
}

func (n *naiveSchedule) fire(tick int64) []int32 {
	var due []int
	for i, at := range n.next {
		if at == tick {
			due = append(due, i)
		}
	}
	slices.SortFunc(due, func(a, b int) int { return n.seq[a] - n.seq[b] })
	fired := make([]int32, len(due))
	for k, i := range due {
		fired[k] = n.ids[i]
		n.next[i], n.seq[i] = tick+n.period, n.arms
		n.arms++
	}
	return fired
}

// TestScaleScheduleMatchesNaiveOrder holds the static schedule to the
// queue it replaced: tick by tick over three periods, the ids each shard
// polls, in order, are what naiveSchedule fires — and they are what the
// sweep did poll. Covered: eight ticks per interval and one, several
// shard counts, shards with empty classes, and the flows whose first
// poll comes a period late. At the fleet's intervals those are all of
// their class (on time there means a phase of exactly zero); the
// few-nanosecond intervals are what put both kinds in one class.
func TestScaleScheduleMatchesNaiveOrder(t *testing.T) {
	late, empty, mixed := 0, 0, 0
	for interval, ticks := range map[units.Duration]int64{100 * units.Millisecond: 8, 100*units.Millisecond + 1: 1, 16: 8, 3: 1} {
		for _, c := range []struct{ flows, shards int }{{500, 1}, {500, 2}, {500, 3}, {500, 7}, {10, 3}} {
			f := NewScale(ScaleConfig{Seed: 3, Flows: c.flows, Interval: interval, Shards: c.shards, EscalateAbove: -1})
			g, period := f.cfg.gran(), f.cfg.period()
			if period != ticks {
				t.Fatalf("interval %d ns: %d ticks per period, want %d", interval, period, ticks)
			}
			naive := make([]*naiveSchedule, c.shards)
			for s, sh := range f.shards {
				naive[s] = newNaiveSchedule(f.cfg, s)
				for cl, n := range sh.late {
					late += int(n)
					if sh.lo[cl] == sh.lo[cl+1] {
						empty++
					} else if 0 < n && n < sh.lo[cl+1]-sh.lo[cl] {
						mixed++
					}
				}
			}
			for tick := int64(1); tick <= 3*period+1; tick++ {
				now := units.Time(tick * int64(g))
				f.pipe.step(now)
				for s, sh := range f.shards {
					lo, hi := sh.due(tick)
					if got, want := sh.ids[lo:hi], naive[s].fire(tick); !slices.Equal(got, want) {
						t.Fatalf("interval %d ns, %d flows, shard %d of %d, tick %d: polls %v, the queue fires %v",
							interval, c.flows, s, c.shards, tick, got, want)
					}
					for slot, at := range sh.lastPoll {
						if in := int32(slot) >= lo && int32(slot) < hi; in != (at == int64(now)) {
							t.Fatalf("interval %d ns, shard %d of %d, tick %d: slot %d due=%v but last polled at %d",
								interval, s, c.shards, tick, slot, in, at)
						}
					}
				}
			}
		}
	}
	if late == 0 || empty == 0 || mixed == 0 {
		t.Fatalf("%d late flows, %d empty classes, %d classes with late and on-time flows; the cases are vacuous", late, empty, mixed)
	}
}

// TestScaleResumeAcrossShardCounts: a snapshot taken at two shards, with
// escalated flows in it, resumes at three into the same run — result,
// stream export and the next snapshot — as it does at two.
func TestScaleResumeAcrossShardCounts(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := scaleTestConfig(61, 120)
	cfg.Shards = 2
	cfg.Overload = &overload.Config{Budgets: overload.Budgets{LiveFull: 8}}
	first := NewScale(cfg)
	first.Run()
	snap := first.Snapshot()
	if len(snap.Conns) == 0 {
		t.Fatal("snapshot holds no escalated flows")
	}
	resume := func(shards int) (*ScaleResult, []byte, []byte) {
		var export bytes.Buffer
		rcfg := cfg
		rcfg.Shards, rcfg.Resume, rcfg.Sink = shards, snap, stream.NewTextExporter(&export)
		f := NewScale(rcfg)
		res := f.Run()
		next := f.Snapshot()
		next.Shards = 0 // the one field that names the layout
		raw, err := next.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return res, export.Bytes(), raw
	}
	res2, export2, snap2 := resume(2)
	res3, export3, snap3 := resume(3)
	if res2.Restores != len(snap.Conns) {
		t.Fatalf("%d restores of %d escalated flows", res2.Restores, len(snap.Conns))
	}
	if !reflect.DeepEqual(res2, res3) {
		t.Fatalf("resumed results differ:\n  2: %+v\n  3: %+v", res2, res3)
	}
	if !bytes.Equal(export2, export3) {
		t.Fatalf("resumed stream exports differ (%d vs %d bytes)", len(export2), len(export3))
	}
	if !bytes.Equal(snap2, snap3) {
		t.Fatalf("snapshots of the resumed runs differ (%d vs %d bytes)", len(snap2), len(snap3))
	}
}

// TestScaleTelemetryPollCounters checks the counters the elembench
// -metrics-summary per-poll cost line normalizes by: snd_polls and
// rcv_polls must cover every lite and tracker poll of the run.
func TestScaleTelemetryPollCounters(t *testing.T) {
	testutil.NoLeaks(t)
	telem := telemetry.New()
	cfg := scaleTestConfig(11, 100)
	cfg.Telem = telem
	res := NewScale(cfg).Run()
	var snd, rcv float64
	for _, c := range telem.Registry().Counters() {
		switch c.Name {
		case "snd_polls":
			snd = c.Value()
		case "rcv_polls":
			rcv = c.Value()
		}
	}
	if want := float64(res.Polls/2 + res.TrackerPolls); snd != want {
		t.Fatalf("snd_polls = %v, want %v", snd, want)
	}
	if want := float64(res.Polls / 2); rcv != want {
		t.Fatalf("rcv_polls = %v, want %v", rcv, want)
	}
}

// TestFleetScaleSoak is the wired-into-make-soak scale soak: 100k
// monitors (10k under -short) through the full two-phase pipeline
// under the race detector, asserting zero goroutine leaks and the
// shard-count invariance of the result and of the snapshot the drained
// fleet takes after Run. The scale worker goroutines live only between
// barriers, so any leak here is a real regression.
func TestFleetScaleSoak(t *testing.T) {
	testutil.NoLeaks(t)
	flows := 100_000
	if testing.Short() {
		flows = 10_000
	}
	run := func(shards int) (*ScaleResult, *Snapshot) {
		cfg := ScaleConfig{
			Seed:     97,
			Flows:    flows,
			Duration: 4 * units.Second,
			Interval: 100 * units.Millisecond,
			Shards:   shards,
			Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: 256}},
		}
		f := NewScale(cfg)
		res := f.Run()
		return res, f.Snapshot()
	}
	want, wantSnap := run(4)
	if want.Escalations == 0 {
		t.Fatal("soak escalated no flows")
	}
	if want.StreamErr != nil {
		t.Fatal(want.StreamErr)
	}
	if len(wantSnap.Conns) != want.Escalated || len(wantSnap.Tiers) != flows {
		t.Fatalf("snapshot after Run holds %d tiers and %d trackers; %d flows, %d escalated",
			len(wantSnap.Tiers), len(wantSnap.Conns), flows, want.Escalated)
	}
	nominal := 2 * uint64(flows) * 40 // flows × (4 s / 100 ms) polls × 2 sides
	if want.Polls+want.TrackerPolls < nominal*9/10 {
		t.Fatalf("soak polls %d (+%d tracker) below 90%% of nominal %d", want.Polls, want.TrackerPolls, nominal)
	}
	got, gotSnap := run(7)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("soak result diverges across shard counts:\n  4: %+v\n  7: %+v", want, got)
	}
	// Shards names the layout, and differs by design.
	if !slices.Equal(wantSnap.Tiers, gotSnap.Tiers) {
		t.Fatal("snapshot tiers after Run differ across shard counts")
	}
	if !reflect.DeepEqual(wantSnap.Conns, gotSnap.Conns) {
		t.Fatalf("snapshot trackers after Run differ across shard counts: %d vs %d entries", len(wantSnap.Conns), len(gotSnap.Conns))
	}
}

// TestScaleMillionMonitors is the headline acceptance run: one million
// concurrent monitors in one process, full two-phase pipeline, governor
// bounding the escalated population. -short drops to 100k so CI stays
// fast; run without -short for the full-scale proof.
func TestScaleMillionMonitors(t *testing.T) {
	flows := 1_000_000
	if testing.Short() {
		flows = 100_000
	}
	cfg := ScaleConfig{
		Seed:     2024,
		Flows:    flows,
		Duration: 2 * units.Second,
		Interval: 100 * units.Millisecond,
		Shards:   8,
		Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: 4096}},
	}
	res := NewScale(cfg).Run()
	if res.StreamErr != nil {
		t.Fatal(res.StreamErr)
	}
	if res.Escalations == 0 {
		t.Fatal("no escalations at scale")
	}
	nominal := 2 * uint64(flows) * 20
	if res.Polls+res.TrackerPolls < nominal*9/10 {
		t.Fatalf("polls %d (+%d tracker) below 90%% of nominal %d", res.Polls, res.TrackerPolls, nominal)
	}
	if res.SndP99 <= res.SndP50 || res.SndP50 <= 0 {
		t.Fatalf("quantiles degenerate at scale: p50=%v p99=%v", res.SndP50, res.SndP99)
	}
}

// BenchmarkFleetMillion is the per-poll cost benchmark at a million
// flows: the pure lite plane (escalation disabled — promotions
// allocate by design and are costed separately), reporting ns and
// allocs per lite poll. The benchgate baseline pins the per-flow
// allocation count near zero: construction is the only allocator.
func BenchmarkFleetMillion(b *testing.B) {
	b.ReportAllocs()
	var polls uint64
	for i := 0; i < b.N; i++ {
		cfg := ScaleConfig{
			Seed:          int64(i) + 1,
			Flows:         1_000_000,
			Duration:      units.Second,
			Interval:      100 * units.Millisecond,
			Shards:        8,
			EscalateAbove: -1,
		}
		res := NewScale(cfg).Run()
		polls += res.Polls
		if res.Polls == 0 {
			b.Fatal("no polls")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(polls), "ns/poll")
}
