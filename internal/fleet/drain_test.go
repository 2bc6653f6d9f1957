package fleet

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"testing"

	"element/internal/aqm"
	"element/internal/overload"
	"element/internal/reqtrace"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
	"element/internal/waterfall"
)

// drainedChurnConfig is the fleet_churn shape at a test's size:
// staggered opens, early closes, crashes and stalls, stream windows with
// escalation through a retrying export queue, a retained-sample budget
// the governor sheds for, and the caller's waterfall.
func drainedChurnConfig(seed int64, conns int, wf *waterfall.Waterfall) Config {
	return Config{
		Seed: seed, Connections: conns, Duration: 2 * units.Second,
		Rate: 4 * units.Mbps, RTT: 40 * units.Millisecond, Interval: 10 * units.Millisecond,
		Shards: 2,
		Churn:  ChurnConfig{OpenWindow: 500 * units.Millisecond, CloseFrac: .1, CrashFrac: .2, StallFrac: .1},
		Stream: &StreamConfig{
			Window: 250 * units.Millisecond,
			Rules:  stream.Rules{P99Above: 100 * units.Millisecond},
			Sink:   stream.NewBatchExporter(io.Discard, 0),
		},
		Overload:    &overload.Config{Budgets: overload.Budgets{RetainedSamples: 40 * conns}},
		ExportQueue: &overload.QueueConfig{},
		Waterfall:   wf,
	}
}

// TestNoRecorderHookAfterAbsorb: the drain shuts each shard's engine
// down before the caller's waterfall absorbs the shard's recorders, so
// no recorder hook runs on an absorbed recorder. Absorb re-points every
// recorder to the caller's waterfall and its clock, and every hook that
// records reads its recorder's clock: the caller's clock here counts its
// reads, and must read none. Every recorder is attached for the whole run.
func TestNoRecorderHookAfterAbsorb(t *testing.T) {
	testutil.NoLeaks(t)
	reads := 0
	wf := waterfall.New()
	wf.SetClock(func() units.Time { reads++; return 0 })
	cfg := testConfig(5, 8)
	cfg.Duration, cfg.Shards, cfg.Waterfall = 2*units.Second, 2, wf
	New(cfg).Run()
	if reads != 0 {
		t.Fatalf("recorder hooks read the caller's clock %d times after Absorb", reads)
	}
	if agg := wf.Aggregate(); agg.Ranges == 0 || agg.Resizes == 0 {
		t.Fatalf("the absorbed recorders saw %d ranges, %d resizes: the run shows nothing", agg.Ranges, agg.Resizes)
	}
}

// fanoutRPCConfig is the fanout_rpc shape at a test's size: 64
// connections in 8 groups of 8 legs over CoDel at 75 % mean utilisation,
// every request traced into the caller's tracer.
func fanoutRPCConfig(seed int64) Config {
	const degree, rps, legBytes = 8, 500, 256
	return Config{
		Seed: seed, Connections: 8 * degree, Duration: 2 * units.Second,
		Rate: units.Rate(float64(rps*legBytes*8) / 0.75), RTT: 20 * units.Millisecond,
		Disc:   aqm.KindCoDel,
		Fanout: &FanoutConfig{Degree: degree, RPS: rps, RequestBytes: legBytes, Tracer: reqtrace.New()},
	}
}

// What a drained fleet holds per connection at 64 connections, 2 s and
// seed 1: its result logs, held checkpoints, tiers and recorder
// aggregates, not the connections' simulated stacks, collectors,
// escalators or trackers. drainedBytesPerConn bounds the fleet_churn
// shape, which holds 4.4 KB a connection (6.9 KB before the result logs
// were trimmed and their measurements masked, 24.6 KB while a drained
// monitor kept its collector and recorder, and with them the engine;
// 64.5 KB when drained fleets kept their engines, packet pools and
// every recorder's ranges and markers). drainedFanoutBytesPerConn
// bounds the fanout_rpc shape, whose connections keep graded result logs
// and the tracer's requests: it holds 31.0 KB a connection, 59.9 KB
// before the logs were trimmed and masked, and 136.6 KB while a drained
// monitor kept its collector and recorder. drainedExitBytesPerConn
// bounds the churn shape in exit mode without a waterfall, where each
// connection's stamps are a truth-only recorder's: it holds 5.8 KB a
// connection, about two thirds of it the graded result logs.
const (
	drainedBytesPerConn       = 6 << 10
	drainedExitBytesPerConn   = 8 << 10
	drainedFanoutBytesPerConn = 40 << 10
)

// TestDrainedFleetRetains measures the heap a drained fleet holds per
// connection — HeapAlloc with the fleet, its result and the caller's
// waterfall and tracer referenced, less HeapAlloc once they are dropped
// — and holds it under each shape's bound.
func TestDrainedFleetRetains(t *testing.T) {
	testutil.NoLeaks(t)
	const conns = 64
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		bound int64
	}{
		{"churn", func() Config { return drainedChurnConfig(1, conns, waterfall.New()) }, drainedBytesPerConn},
		{"exit", func() Config {
			cfg := drainedChurnConfig(1, conns, nil)
			cfg.Stream, cfg.Overload, cfg.ExportQueue = nil, nil, nil
			return cfg
		}, drainedExitBytesPerConn},
		{"fanout", func() Config { return fanoutRPCConfig(1) }, drainedFanoutBytesPerConn},
	} {
		cfg := tc.cfg()
		wf, tr := cfg.Waterfall, (*reqtrace.Tracer)(nil)
		if cfg.Fanout != nil {
			tr = cfg.Fanout.Tracer
		}
		f := New(cfg)
		res := f.Run()
		var nothing bool
		switch {
		case cfg.Fanout != nil:
			nothing = res.Requests == 0 || res.Sender.Checked == 0
		case wf != nil:
			nothing = res.Escalations == 0 || res.Restarts == 0 || wf.Aggregate().Ranges == 0
		default:
			nothing = res.Restarts == 0 || res.Sender.Checked == 0
		}
		if nothing {
			t.Fatalf("%s: %v, %d escalations, %d requests, %d checked: the run shows nothing",
				tc.name, res, res.Escalations, res.Requests, res.Sender.Checked)
		}
		held := heap()
		runtime.KeepAlive(f)
		runtime.KeepAlive(res)
		runtime.KeepAlive(wf)
		runtime.KeepAlive(tr)
		perConn := (int64(held) - int64(heap())) / conns
		t.Logf("%s: a drained fleet holds %d B a connection", tc.name, perConn)
		if perConn > tc.bound {
			t.Fatalf("%s: a drained fleet holds %d B a connection, bound %d", tc.name, perConn, tc.bound)
		}
	}
}

// TestDrainZeroesRunState: after Run — to the end, or canceled at a
// barrier — every monitor's monitorRun, every shard's shardRun and every
// scale shard's scaleRun is zero, the held checkpoints keep no in-flight
// records and neither fleet its streams or export chain, on the
// fan-out, churn and scale shapes, at one shard and more. Every other
// field of Monitor, shard and scaleShard that can reach the heap is on
// an allowlist of what a drained fleet's readers read: a new one has to
// go into the run struct or onto the list, and every name on the list
// must still be a field.
func TestDrainZeroesRunState(t *testing.T) {
	testutil.NoLeaks(t)
	for _, c := range []struct {
		typ, run reflect.Type
		allow    map[string]string
	}{
		{reflect.TypeOf(Monitor{}), reflect.TypeOf(monitorRun{}), map[string]string{
			"fl":     "the monitor's fleet",
			"sh":     "the monitor's shard",
			"sndCP":  "held checkpoint; Snapshot encodes it after Run",
			"rcvCP":  "held checkpoint; Snapshot encodes it after Run",
			"minCP":  "held checkpoint; Snapshot encodes it after Run",
			"sndLog": "stitched series; ConnResult.SndLog shares its chunks",
			"rcvLog": "stitched series; ConnResult.RcvLog shares its chunks",
		}},
		{reflect.TypeOf(shard{}), reflect.TypeOf(shardRun{}), map[string]string{
			"fl":       "the shard's fleet",
			"monitors": "the shard's monitors, also Fleet.monitors",
		}},
		{reflect.TypeOf(scaleShard{}), reflect.TypeOf(scaleRun{}), map[string]string{
			"fl":   "the shard's fleet",
			"ids":  "slot → flow id; ScaleFleet.Snapshot keys tiers and trackers by it",
			"tier": "slot → tier; ScaleFleet.Snapshot writes it",
			"full": "escalated trackers; ScaleFleet.Snapshot encodes their checkpoints",
		}},
	} {
		embedded := false
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			switch {
			case f.Anonymous && f.Type == c.run:
				embedded = true
			case c.allow[f.Name] != "":
				delete(c.allow, f.Name)
			case reaches(f.Type):
				t.Errorf("%v.%s reaches the heap and is neither in %v nor on the allowlist", c.typ, f.Name, c.run)
			}
		}
		if !embedded {
			t.Errorf("%v does not embed %v", c.typ, c.run)
		}
		for name := range c.allow {
			t.Errorf("allowlisted %v.%s is not a field", c.typ, name)
		}
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		cancel bool
	}{
		{"fanout", fanoutRPCConfig(1), false},
		{"churn", drainedChurnConfig(1, 16, waterfall.New()), false},
		{"canceled", drainedChurnConfig(2, 16, waterfall.New()), true},
		{"inline", func() Config {
			c := drainedChurnConfig(3, 16, waterfall.New())
			c.Shards = 1 // one shard drains on the calling goroutine
			return c
		}(), false},
	} {
		f := New(tc.cfg)
		for _, m := range f.monitors {
			if reflect.ValueOf(m.monitorRun).IsZero() {
				t.Fatalf("%s: conn %d has no run state before Run: the test shows nothing", tc.name, m.ID)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		if tc.cancel {
			inner := f.pipe.barrier
			f.pipe.barrier = func(now units.Time) {
				inner(now)
				if now >= units.Time(300*units.Millisecond) {
					cancel()
				}
			}
		}
		res := f.RunContext(ctx)
		cancel()
		if res.Interrupted != tc.cancel {
			t.Fatalf("%s: interrupted %v", tc.name, res.Interrupted)
		}
		for _, m := range f.monitors {
			if !reflect.ValueOf(m.monitorRun).IsZero() {
				t.Errorf("%s: conn %d keeps run state after Run: %+v", tc.name, m.ID, m.monitorRun)
			}
			if m.sndCP.Records != nil || m.rcvCP.Records != nil {
				t.Errorf("%s: conn %d's held checkpoint keeps %d+%d in-flight records",
					tc.name, m.ID, len(m.sndCP.Records), len(m.rcvCP.Records))
			}
		}
		for i, sh := range f.shards {
			if !reflect.ValueOf(sh.shardRun).IsZero() {
				t.Errorf("%s: shard %d keeps run state after Run", tc.name, i)
			}
		}
		if f.queue != nil || f.pipe.sink != nil || f.pipe.streams != nil || f.pipe.gov != nil {
			t.Errorf("%s: the fleet keeps its export chain or governor after Run", tc.name)
		}
	}

	for _, tc := range []struct {
		name   string
		shards int
		cancel bool
	}{{"scale", 3, false}, {"scale-canceled", 3, true}, {"scale-inline", 1, false}} {
		cfg := scaleTestConfig(61, 120)
		cfg.Shards = tc.shards
		cfg.Sink = stream.NewBatchExporter(io.Discard, 0)
		cfg.Overload = &overload.Config{Budgets: overload.Budgets{LiveFull: 8}}
		f := NewScale(cfg)
		for i, sh := range f.shards {
			if reflect.ValueOf(sh.scaleRun).IsZero() {
				t.Fatalf("%s: scale shard %d has no run state before Run: the test shows nothing", tc.name, i)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		if tc.cancel {
			inner := f.pipe.barrier
			f.pipe.barrier = func(now units.Time) {
				inner(now)
				if now >= units.Time(2*units.Second) {
					cancel()
				}
			}
		}
		res := f.RunContext(ctx)
		cancel()
		if res.Interrupted != tc.cancel || res.Escalated == 0 {
			t.Fatalf("%s: interrupted %v, %d escalated at the end: the run shows nothing", tc.name, res.Interrupted, res.Escalated)
		}
		for i, sh := range f.shards {
			if !reflect.ValueOf(sh.scaleRun).IsZero() {
				t.Errorf("%s: scale shard %d keeps run state after Run", tc.name, i)
			}
			for slot, fu := range sh.full {
				if fu.esc != nil {
					t.Errorf("%s: escalated flow %d keeps its escalator after Run", tc.name, sh.ids[slot])
				}
			}
		}
		if f.pipe.sink != nil || f.pipe.streams != nil || f.pipe.gov != nil {
			t.Errorf("%s: the scale fleet keeps its streams, sink or governor after Run", tc.name)
		}
		if snap := f.Snapshot(); len(snap.Conns) != res.Escalated {
			t.Errorf("%s: the drained fleet snapshots %d escalated flows, the result counts %d", tc.name, len(snap.Conns), res.Escalated)
		}
	}
}

// reaches reports whether a value of typ can hold a reference to the
// heap.
func reaches(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.UnsafePointer, reflect.String:
		return true
	case reflect.Array:
		return reaches(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if reaches(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
