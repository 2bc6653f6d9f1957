package fleet

import (
	"context"
	"io"
	"maps"
	"os"
	"strconv"
	"testing"

	"element/internal/faults"
	"element/internal/overload"
	"element/internal/sim"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
)

// churnAll is the standard test churn: staggered opens, and a third of
// the fleet each crashing, wedging, or closing early.
var churnAll = ChurnConfig{
	OpenWindow: units.Second,
	CloseFrac:  0.3,
	CrashFrac:  0.4,
	StallFrac:  0.3,
}

func testConfig(seed int64, conns int) Config {
	return Config{
		Seed:        seed,
		Connections: conns,
		Duration:    6 * units.Second,
		Churn:       churnAll,
	}
}

// TestFleetShortHorizonRestarts is the restart matrix at the horizons
// the long soaks skip: elemfleet's churn defaults over 4 connections, at
// 0.5, 1 and 2 s, with and without fan-out, seeds 1–5. A monitor that
// crashes or is recycled before its first periodic checkpoint must still
// restart through a restore (from its birth checkpoint), so the run
// stays bounded-or-flagged and every restart counts its restores.
func TestFleetShortHorizonRestarts(t *testing.T) {
	testutil.NoLeaks(t)
	for _, dur := range []units.Duration{500 * units.Millisecond, units.Second, 2 * units.Second} {
		for _, fanout := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				cfg := Config{
					Seed:        seed,
					Connections: 4,
					Duration:    dur,
					Churn: ChurnConfig{
						OpenWindow: units.Second,
						CloseFrac:  0.25,
						CrashFrac:  0.4,
						StallFrac:  0.3,
					},
				}
				if fanout {
					cfg.Fanout = &FanoutConfig{Degree: 2}
				}
				res := New(cfg).Run()
				if v := res.Violations(); v != 0 {
					t.Errorf("dur=%v fanout=%v seed=%d: %d bound violations (%v)", dur, fanout, seed, v, res)
				}
				if res.Restarts > 0 && res.Restores == 0 {
					t.Errorf("dur=%v fanout=%v seed=%d: %d restarts but no restores", dur, fanout, seed, res.Restarts)
				}
			}
		}
	}
}

func TestFleetBoundedOrFlaggedUnderChurn(t *testing.T) {
	testutil.NoLeaks(t)
	res := New(testConfig(3, 12)).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations under churn: %d (sender %+v receiver %+v)", v, res.Sender, res.Receiver)
	}
	if res.Crashes == 0 || res.Recycles == 0 {
		t.Fatalf("churn did not exercise the supervisor: %v", res)
	}
	if res.Restarts < res.Crashes+res.Recycles {
		t.Fatalf("restarts %d < crashes %d + recycles %d", res.Restarts, res.Crashes, res.Recycles)
	}
	if res.Restores == 0 {
		t.Fatalf("no checkpoint restores despite crashes: %v", res)
	}
	for _, c := range res.Conns {
		if c.SndLog.Len() == 0 {
			t.Errorf("conn %d produced no sender samples", c.ID)
		}
	}
}

func TestFleetDeterministicForFixedSeed(t *testing.T) {
	testutil.NoLeaks(t)
	a := New(testConfig(17, 10)).Run()
	b := New(testConfig(17, 10)).Run()
	if a.Restarts != b.Restarts || a.Crashes != b.Crashes || a.Recycles != b.Recycles ||
		a.Checkpoints != b.Checkpoints || a.Evictions != b.Evictions || a.Restores != b.Restores {
		t.Fatalf("same-seed runs diverge:\n  a %v\n  b %v", a, b)
	}
	for i := range a.Conns {
		ca, cb := a.Conns[i], b.Conns[i]
		if ca.Restarts != cb.Restarts || ca.Crashes != cb.Crashes || ca.Recycles != cb.Recycles ||
			ca.SndLog.Len() != cb.SndLog.Len() || ca.RcvLog.Len() != cb.RcvLog.Len() {
			t.Fatalf("conn %d diverges between same-seed runs:\n  a %+v (%d/%d samples)\n  b %+v (%d/%d samples)",
				i, ca, ca.SndLog.Len(), ca.RcvLog.Len(), cb, cb.SndLog.Len(), cb.RcvLog.Len())
		}
	}
}

func TestFleetWatchdogRecyclesWedgedMonitors(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(5, 4)
	cfg.Churn = ChurnConfig{StallFrac: 1}
	res := New(cfg).Run()
	if res.Recycles < cfg.Connections {
		t.Fatalf("recycles = %d, want ≥ %d (every monitor wedges once)", res.Recycles, cfg.Connections)
	}
	// A recycled monitor must resume its series: samples exist from after
	// the earliest possible wedge time.
	for _, c := range res.Conns {
		last := c.SndLog.At(c.SndLog.Len() - 1)
		if last.At < units.Time(cfg.Duration/2) {
			t.Errorf("conn %d series stops at %v — monitor never resumed", c.ID, last.At)
		}
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations after recycles: %d", v)
	}
}

func TestFleetCrashRestoresFromCheckpoint(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(7, 4)
	cfg.Churn = ChurnConfig{CrashFrac: 1}
	res := New(cfg).Run()
	if res.Crashes < cfg.Connections {
		t.Fatalf("crashes = %d, want ≥ %d", res.Crashes, cfg.Connections)
	}
	if res.Checkpoints == 0 {
		t.Fatalf("no checkpoints taken")
	}
	// Crashes land mid-run, after the first 500 ms checkpoint — every
	// restart must be a restore, visible in the anomaly counters.
	if res.Restores < cfg.Connections {
		t.Fatalf("restores = %d, want ≥ %d (restart without checkpoint?)", res.Restores, cfg.Connections)
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations after crash/restore: %d", v)
	}
}

func TestFleetMinimizeSurvivesChurn(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(9, 6)
	cfg.Minimize = true
	res := New(cfg).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations with minimizer: %d", v)
	}
	if res.Crashes == 0 {
		t.Fatalf("churn did not crash any monitor: %v", res)
	}
}

func TestFleetComposesWithFaultProfiles(t *testing.T) {
	testutil.NoLeaks(t)
	prof, err := faults.ByName("stale-info")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11, 8)
	cfg.Faults = &prof
	res := New(cfg).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations under faults+churn: %d (sender %+v receiver %+v)", v, res.Sender, res.Receiver)
	}
}

// TestFleetTelemetryCountersMatchResult holds a one-shard fleet's
// telemetry to its Result; TestFleetShardTelemetryMerges (shard_test.go)
// holds a three-shard one to the same checks.
func TestFleetTelemetryCountersMatchResult(t *testing.T) {
	testutil.NoLeaks(t)
	checkFleetTelemetry(t, 1)
}

// checkFleetTelemetry holds the fleet's telemetry, folded at drain, to
// the Result it is folded from, in exit mode and with the stream,
// escalation rules, overload governor and export queue, on the given
// number of shards: every supervision counter equals its Result total
// (escalations and demotions only in stream mode), every opened monitor
// is running or backing off as the last barrier left it, the open
// connections are those opened less those closed, and the shards'
// trace events merge.
func checkFleetTelemetry(t *testing.T, shards int) {
	t.Helper()
	for _, mode := range []string{"exit", "stream"} {
		t.Run(mode, func(t *testing.T) {
			telem := telemetry.New()
			cfg := testConfig(31, 9)
			cfg.Shards, cfg.Telem = shards, telem
			if mode == "stream" {
				cfg.Stream = &StreamConfig{
					Window: 500 * units.Millisecond,
					Rules:  streamRules,
					Sink:   stream.NewTextExporter(io.Discard),
				}
				cfg.ExportQueue = &overload.QueueConfig{Capacity: 8}
				cfg.Overload = &overload.Config{
					Budgets:   overload.Budgets{RetainedSamples: 2000},
					HoldTicks: 2,
				}
			}
			res := New(cfg).Run()
			if res.Restarts == 0 || res.Checkpoints == 0 {
				t.Fatalf("run exercised no supervision: %v", res)
			}
			reg := telem.Registry()
			counters := map[string]float64{}
			for _, c := range reg.Counters() {
				if c.Component == "fleet" {
					counters[c.Name] = c.Value()
				}
			}
			want := map[string]float64{
				"restarts":          float64(res.Restarts),
				"crashes":           float64(res.Crashes),
				"watchdog_recycles": float64(res.Recycles),
				"checkpoints":       float64(res.Checkpoints),
			}
			if mode == "stream" {
				if res.Escalations == 0 || res.Demotions == 0 {
					t.Fatalf("run did not escalate and demote: %d escalations, %d demotions", res.Escalations, res.Demotions)
				}
				want["escalations"] = float64(res.Escalations)
				want["demotions"] = float64(res.Demotions)
			}
			if !maps.Equal(counters, want) {
				t.Errorf("fleet counters %v, want %v", counters, want)
			}
			gauges := map[string]float64{}
			for _, g := range reg.Gauges() {
				if v, ok := g.Value(); ok && g.Component == "fleet" {
					gauges[g.Name] = v
				}
			}
			// Every connection opens inside the run: OpenWindow < Duration.
			opened, closed := cfg.Connections, 0
			for _, cr := range res.Conns {
				if cr.Closed {
					closed++
				}
			}
			if closed == 0 {
				t.Fatal("no connection closed early")
			}
			if got := gauges["monitors_running"] + gauges["monitors_backing_off"]; got != float64(opened) {
				t.Errorf("monitors running %v + backing off %v = %v, want the %d opened",
					gauges["monitors_running"], gauges["monitors_backing_off"], got, opened)
			}
			if got := gauges["connections_open"]; got != float64(opened-closed) {
				t.Errorf("connections_open = %v, want %d opened less %d closed", got, opened, closed)
			}
			if telem.Tracer().Len() == 0 {
				t.Error("no trace events merged from shards")
			}
		})
	}
}

func TestFleetInterruptDrainsGracefully(t *testing.T) {
	testutil.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run: the fleet must still drain cleanly
	res := New(testConfig(19, 6)).RunContext(ctx)
	if !res.Interrupted {
		t.Fatalf("result not marked interrupted")
	}
	if len(res.Conns) != 6 {
		t.Fatalf("drain reconciled %d conns, want 6", len(res.Conns))
	}

	// The scale fleet runs the same loop. Cancel it mid-run, from the
	// sink, on the first exported window: it must stop at the next
	// barrier with a drained result — some polls, not all of them, and
	// every window up to where it stopped sealed.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg := scaleTestConfig(19, 200)
	cfg.Shards = 3
	cfg.Sink = stream.SinkFunc(func([]string, *stream.Window) error {
		cancel()
		return nil
	})
	sf := NewScale(cfg)
	sres := sf.RunContext(ctx)
	if !sres.Interrupted {
		t.Fatal("scale result not marked interrupted")
	}
	nominal := 2 * uint64(cfg.Flows) * uint64(cfg.Duration/cfg.Interval)
	if sres.Polls == 0 || sres.Polls >= nominal/2 {
		t.Fatalf("interrupted scale run executed %d polls, want some but under half of %d", sres.Polls, nominal)
	}
	reached := sf.pipe.now
	if want := uint64(reached/units.Time(500*units.Millisecond)) + 1; sres.StreamWindows != want {
		t.Fatalf("scale run interrupted at %v sealed %d windows, want %d", reached, sres.StreamWindows, want)
	}
}

// TestMonitorRearmZeroAlloc pins the one way a fleet schedules a poll:
// re-arming a monitor's tick on the shard engine, and the engine step
// that fires it, allocate nothing. A parked monitor's tick does exactly
// that and no more — it skips the poll and re-arms.
func TestMonitorRearmZeroAlloc(t *testing.T) {
	f := &Fleet{cfg: Config{}.normalize()}
	sh := &shard{fl: f, shardRun: shardRun{eng: sim.New(1)}}
	m := &Monitor{fl: f, sh: sh, state: stateRunning, tier: overload.TierParked}
	m.scheduleTick()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if !sh.eng.Step() {
			t.Fatal("parked monitor's tick did not re-arm")
		}
	})
	if allocs != 0 {
		t.Fatalf("tick re-arm allocates %.2f times per poll", allocs)
	}
	if got, want := sh.eng.Now(), units.Time(f.cfg.Interval)*(runs+1); got != want {
		t.Fatalf("engine at %v after %d ticks, want %v", got, runs+1, want)
	}
}

// TestExitModeTrackersHoldNoSecondCopy pins the one-way hand-over in exit
// mode: every poll drains the trackers into the stitched series, so after
// every barrier a polling monitor's sender tracker holds no measurement
// and its receiver tracker only what reads produced since its last poll,
// under one interval ago. Churn crashes, wedges and restarts monitors;
// fan-out drives the trackers from the request workload instead.
func TestExitModeTrackersHoldNoSecondCopy(t *testing.T) {
	testutil.NoLeaks(t)
	fanout := fanoutConfig(5, 3, 2)
	fanout.Churn = ChurnConfig{CrashFrac: 0.4, StallFrac: 0.3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"churn", testConfig(3, 8)}, {"fanout", fanout}} {
		tc.cfg.Shards = 2
		f := New(tc.cfg)
		checked := 0
		inner := f.pipe.barrier
		f.pipe.barrier = func(now units.Time) {
			inner(now)
			for _, m := range f.monitors {
				if m.state != stateRunning || m.wedged {
					continue
				}
				checked++
				if n := len(m.snd.Estimates().Log()); n != 0 {
					t.Fatalf("%s: at %v conn %d's sender tracker holds %d measurements", tc.name, now, m.ID, n)
				}
				for _, mm := range m.rcv.Estimates().Log() {
					if now.Sub(mm.At) >= f.cfg.Interval {
						t.Fatalf("%s: at %v conn %d's receiver tracker still holds a measurement from %v",
							tc.name, now, m.ID, mm.At)
					}
				}
			}
		}
		res := f.Run()
		if checked == 0 || res.Crashes == 0 {
			t.Fatalf("%s: checked %d running monitors over %d crashes", tc.name, checked, res.Crashes)
		}
		for _, c := range res.Conns {
			if c.SndLog.Len() == 0 {
				t.Errorf("%s: conn %d stitched no sender samples", tc.name, c.ID)
			}
		}
	}
}

// TestFleetSoak is the churn soak harness: FLEET_SOAK_CONNS connections
// with full churn under -race, asserting zero goroutine leaks, zero
// bound violations, and counter-for-counter determinism across two
// same-seed runs. FLEET_SOAK_SHARDS sets the worker count for the first
// run; the second run always executes single-shard, so the determinism
// check doubles as a shard-count-invariance check at soak scale.
// `make soak-short` runs ~100 connections, `make soak` ≥1000.
func TestFleetSoak(t *testing.T) {
	connsEnv := os.Getenv("FLEET_SOAK_CONNS")
	if connsEnv == "" {
		t.Skip("set FLEET_SOAK_CONNS (see `make soak` / `make soak-short`)")
	}
	conns, err := strconv.Atoi(connsEnv)
	if err != nil || conns <= 0 {
		t.Fatalf("bad FLEET_SOAK_CONNS %q", connsEnv)
	}
	shards := 0 // default: one shard per core
	if shardsEnv := os.Getenv("FLEET_SOAK_SHARDS"); shardsEnv != "" {
		if shards, err = strconv.Atoi(shardsEnv); err != nil || shards < 0 {
			t.Fatalf("bad FLEET_SOAK_SHARDS %q", shardsEnv)
		}
	}
	testutil.NoLeaks(t)
	cfg := Config{
		Seed:        23,
		Connections: conns,
		Duration:    4 * units.Second,
		Rate:        2 * units.Mbps,
		Interval:    20 * units.Millisecond,
		Churn:       churnAll,
		Shards:      shards,
	}
	a := New(cfg).Run()
	t.Logf("soak run (%d shards): %v", shards, a)
	if v := a.Violations(); v != 0 {
		t.Fatalf("soak bound violations: %d (sender %+v receiver %+v)", v, a.Sender, a.Receiver)
	}
	if a.Crashes == 0 || a.Recycles == 0 || a.Restores == 0 {
		t.Fatalf("soak churn did not exercise the supervisor: %v", a)
	}
	for _, c := range a.Conns {
		if c.SndLog.Len() == 0 && c.RcvLog.Len() == 0 {
			t.Errorf("conn %d produced no samples at all", c.ID)
		}
	}
	cfg.Shards = 1
	b := New(cfg).Run()
	if a.Restarts != b.Restarts || a.Crashes != b.Crashes || a.Recycles != b.Recycles ||
		a.Evictions != b.Evictions || a.Restores != b.Restores {
		t.Fatalf("sharded and single-shard soak runs diverge for fixed seed:\n  a %v\n  b %v", a, b)
	}

	// Stream-mode soak: the same churning fleet through the windowed
	// sketch pipeline with escalation rules. Retention must stay bounded —
	// no sealed-queue overflow, and per-connection series only on flows
	// that actually escalated — and the NoLeaks guard covers the whole
	// run, so a leaked stream goroutine or timer fails the test.
	cfg.Shards = shards
	cfg.Stream = &StreamConfig{
		Window: 250 * units.Millisecond,
		Rules:  stream.Rules{P99Above: 200 * units.Millisecond},
	}
	c := New(cfg).Run()
	t.Logf("stream soak: windows=%d late=%d escalations=%d demotions=%d",
		c.StreamWindows, c.StreamLate, c.Escalations, c.Demotions)
	if c.StreamWindows == 0 {
		t.Fatal("stream soak exported no windows")
	}
	if c.StreamDropped != 0 {
		t.Fatalf("stream soak dropped %d windows — retention not bounded by drains", c.StreamDropped)
	}
	if c.StreamErr != nil {
		t.Fatalf("stream soak sink error: %v", c.StreamErr)
	}
	for _, conn := range c.Conns {
		if conn.Escalations == 0 && conn.Demotions == 0 && (conn.SndLog.Len() != 0 || conn.RcvLog.Len() != 0) {
			t.Fatalf("conn %d never escalated yet retained %d/%d samples",
				conn.ID, conn.SndLog.Len(), conn.RcvLog.Len())
		}
	}
}
