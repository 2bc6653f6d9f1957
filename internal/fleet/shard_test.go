package fleet

import (
	"fmt"
	"testing"

	"element/internal/core"
	"element/internal/faults"
	"element/internal/stats"
	"element/internal/testutil"
	"element/internal/units"
)

// TestFleetShardCountInvariance is the golden determinism check for the
// sharded executor: the same seed must produce identical per-connection
// sample series, anomaly counters and grades, and fleet-wide supervisor
// counters and grades, whether the fleet runs — and drains — on one
// shard or many. This is what licenses every source of randomness to
// live in per-connection streams — any accidental draw from a shared
// RNG, or any cross-connection coupling, shows up here as a
// shard-count-dependent divergence. Under stale-info the bulk readers
// never lag, so only the sender is graded; app-stress stalls the
// readers, which grades the receiver too.
func TestFleetShardCountInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	for _, c := range []struct {
		profile  string
		receiver bool
	}{{"stale-info", false}, {"app-stress", true}} {
		prof, err := faults.ByName(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		base := testConfig(29, 10)
		base.Faults = &prof
		run := func(shards int) *Result {
			cfg := base
			cfg.Shards = shards
			return New(cfg).Run()
		}
		want := run(1)
		if want.Sender.Checked == 0 || c.receiver && want.Receiver.Checked == 0 {
			t.Fatalf("%s: shards=1 grades %+v %+v: the run shows nothing", c.profile, want.Sender, want.Receiver)
		}
		for _, shards := range []int{2, 4, 7} {
			got := run(shards)
			if got.Restarts != want.Restarts || got.Crashes != want.Crashes ||
				got.Recycles != want.Recycles || got.Checkpoints != want.Checkpoints ||
				got.Evictions != want.Evictions || got.Restores != want.Restores {
				t.Fatalf("%s: shards=%d diverges from shards=1:\n  1: %v\n  %d: %v", c.profile, shards, want, shards, got)
			}
			if got.Sender != want.Sender || got.Receiver != want.Receiver {
				t.Fatalf("%s: shards=%d grades diverge:\n  1: %+v %+v\n  %d: %+v %+v",
					c.profile, shards, want.Sender, want.Receiver, shards, got.Sender, got.Receiver)
			}
			for i := range want.Conns {
				cw, cg := want.Conns[i], got.Conns[i]
				if cg.Restarts != cw.Restarts || cg.Crashes != cw.Crashes || cg.Recycles != cw.Recycles ||
					cg.Anomalies != cw.Anomalies || cg.Closed != cw.Closed || cg.GoodputBps != cw.GoodputBps ||
					cg.Sender != cw.Sender || cg.Receiver != cw.Receiver {
					t.Fatalf("%s: shards=%d conn %d counters or grades diverge:\n  1: %+v\n  %d: %+v", c.profile, shards, i, cw, shards, cg)
				}
				if err := sameSeries(&cw.SndLog, &cg.SndLog); err != nil {
					t.Fatalf("%s: shards=%d conn %d sender series: %v", c.profile, shards, i, err)
				}
				if err := sameSeries(&cw.RcvLog, &cg.RcvLog); err != nil {
					t.Fatalf("%s: shards=%d conn %d receiver series: %v", c.profile, shards, i, err)
				}
			}
		}
	}
}

// sameSeries compares two measurement series sample-for-sample.
func sameSeries(a, b *stats.Log[core.Measurement]) error {
	as, bs := a.Collect(), b.Collect()
	if len(as) != len(bs) {
		return fmt.Errorf("length %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("sample %d: %+v vs %+v", i, as[i], bs[i])
		}
	}
	return nil
}

// TestFleetShardTelemetryMerges checks that three shards' telemetry
// folds into the caller's instance and matches the Result as one
// shard's does (see checkFleetTelemetry).
func TestFleetShardTelemetryMerges(t *testing.T) {
	testutil.NoLeaks(t)
	checkFleetTelemetry(t, 3)
}

// BenchmarkFleetSharded measures wall-clock fleet throughput by shard
// count: the same seeded workload executed inline (shards=1) and split
// across workers. The per-connection RNG streams make every variant
// compute the identical result, so the ratio is pure parallel speedup.
func BenchmarkFleetSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Seed:        41,
					Connections: 32,
					Duration:    2 * units.Second,
					Rate:        2 * units.Mbps,
					Interval:    20 * units.Millisecond,
					Shards:      shards,
					Churn:       churnAll,
				}
				res := New(cfg).Run()
				if v := res.Violations(); v != 0 {
					b.Fatalf("bound violations: %d", v)
				}
			}
		})
	}
}
