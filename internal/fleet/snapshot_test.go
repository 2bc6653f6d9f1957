package fleet

import (
	"bytes"
	"testing"

	"element/internal/overload"
	"element/internal/testutil"
	"element/internal/units"
)

// TestSnapshotOneFormatBothFleets pins the single snapshot schema: a
// Fleet capture and a ScaleFleet capture both encode as the same
// versioned document — tiers dense by flow ID, tracker state only for
// the flows that hold any — survive Marshal/UnmarshalSnapshot
// byte-for-byte, and resume their fleet at a shard count other than the
// one they were taken at.
func TestSnapshotOneFormatBothFleets(t *testing.T) {
	testutil.NoLeaks(t)
	roundTrip := func(snap *Snapshot, flows, conns int) *Snapshot {
		t.Helper()
		if snap.Version != SnapshotVersion || snap.Flows != flows || len(snap.Tiers) != flows {
			t.Fatalf("capture header: version=%d flows=%d tiers=%d, want %d/%d/%d",
				snap.Version, snap.Flows, len(snap.Tiers), SnapshotVersion, flows, flows)
		}
		if len(snap.Conns) != conns {
			t.Fatalf("capture holds tracker state for %d flows, want %d", len(snap.Conns), conns)
		}
		raw, err := snap.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := UnmarshalSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decoded.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("snapshot does not survive a decode/encode round trip (%d vs %d bytes)", len(raw), len(again))
		}
		return decoded
	}

	// Big fleet: every monitor has checkpointed by the end of the run,
	// so every connection carries tracker state.
	fcfg := testConfig(71, 10)
	fcfg.Churn = ChurnConfig{}
	fcfg.Shards = 4
	f := New(fcfg)
	f.Run()
	fsnap := roundTrip(f.Snapshot(), fcfg.Connections, fcfg.Connections)
	fcfg.Shards, fcfg.Duration, fcfg.Resume = 3, 2*units.Second, fsnap
	if res := New(fcfg).Run(); res.Restores < 2*fcfg.Connections {
		t.Fatalf("fleet resume at 3 shards restored %d tracker states, want >= %d", res.Restores, 2*fcfg.Connections)
	}

	// Scale fleet: only the escalated few carry tracker state.
	scfg := scaleTestConfig(61, 120)
	scfg.Shards = 3
	scfg.Overload = &overload.Config{Budgets: overload.Budgets{LiveFull: 8}}
	sf := NewScale(scfg)
	escalated := sf.Run().Escalated
	if escalated == 0 || escalated >= scfg.Flows {
		t.Fatalf("%d of %d flows escalated at the end; the sparse half of the format is vacuous", escalated, scfg.Flows)
	}
	ssnap := roundTrip(sf.Snapshot(), scfg.Flows, escalated)
	scfg.Shards, scfg.Resume = 2, ssnap
	if res := NewScale(scfg).Run(); res.Restores != escalated {
		t.Fatalf("scale resume at 2 shards restored %d trackers, want %d", res.Restores, escalated)
	}
}

// TestFleetSnapshotResumeRehomesAcrossShards is the rehoming bugfix's
// pin: a snapshot taken on a many-shard fleet restores into fleets of
// any other shard count, deterministically — snapshot entries are keyed
// by connection ID, never shard index. Every resumed tracker counts the
// Restores anomaly and starts its series at degraded confidence rather
// than pretending continuity across runs.
func TestFleetSnapshotResumeRehomesAcrossShards(t *testing.T) {
	testutil.NoLeaks(t)
	src := testConfig(71, 10)
	src.Churn = ChurnConfig{}
	src.Shards = 4
	f := New(src)
	f.Run()
	snap := f.Snapshot()

	resume := func(shards int) *Result {
		cfg := testConfig(72, 10) // different seed: a genuinely new run
		cfg.Churn = ChurnConfig{}
		cfg.Shards = shards
		cfg.Duration = 3 * units.Second
		cfg.Resume = snap
		return New(cfg).Run()
	}
	want := resume(1)
	if want.Restores < 2*len(want.Conns) {
		t.Fatalf("resume restored %d tracker states, want >= %d (both trackers per conn)",
			want.Restores, 2*len(want.Conns))
	}
	if v := want.Violations(); v != 0 {
		t.Fatalf("resumed run violated bounds: %d", v)
	}
	for _, cr := range want.Conns {
		if cr.Anomalies.Restores == 0 {
			t.Errorf("conn %d resumed without a Restores anomaly", cr.ID)
		}
		if cr.SndLog.Len() == 0 {
			t.Errorf("conn %d produced no samples after resume", cr.ID)
		}
	}
	for _, shards := range []int{3, 4} {
		got := resume(shards)
		if got.Restores != want.Restores || got.Violations() != want.Violations() {
			t.Fatalf("shards=%d resume diverges: restores=%d/%d violations=%d/%d",
				shards, got.Restores, want.Restores, got.Violations(), want.Violations())
		}
		for i := range want.Conns {
			cw, cg := want.Conns[i], got.Conns[i]
			if cg.Anomalies != cw.Anomalies || cg.SndLog.Len() != cw.SndLog.Len() || cg.RcvLog.Len() != cw.RcvLog.Len() {
				t.Fatalf("shards=%d conn %d resume state diverges: anom %+v vs %+v, logs %d/%d vs %d/%d",
					shards, i, cw.Anomalies, cg.Anomalies,
					cw.SndLog.Len(), cw.RcvLog.Len(), cg.SndLog.Len(), cg.RcvLog.Len())
			}
		}
	}
}

// TestFleetResumeMidOverloadLandsInValidTier resumes from a snapshot
// whose tiers were captured mid-overload — including one corrupted
// out-of-range tier — into a governed fleet: every flow must land in a
// valid ladder tier (corruption clamps to parked, the conservative
// end), parked flows must resume polling once pressure allows, and the
// bounded-or-flagged contract must hold across the whole resumed run.
func TestFleetResumeMidOverloadLandsInValidTier(t *testing.T) {
	testutil.NoLeaks(t)
	snap := &Snapshot{Seed: 9, Flows: 4, Tiers: []overload.Tier{
		overload.TierSketch,
		overload.TierParked,
		overload.Tier(200), // corrupted: must clamp, not crash
		overload.TierCounters,
	}}
	cfg := testConfig(9, 6)
	cfg.Churn = ChurnConfig{}
	cfg.Duration = 4 * units.Second
	cfg.Resume = snap
	cfg.Overload = &overload.Config{
		// No budgets and no queue: pressure is 0, below every low water
		// mark, so the governor's only job is reclaiming the resumed
		// degraded tiers.
		HoldTicks: 2,
	}
	res := New(cfg).Run()

	sum := 0
	for _, n := range res.TierCounts {
		sum += n
	}
	if sum != cfg.Connections {
		t.Fatalf("tier census %v does not cover %d flows: corrupted tier escaped the ladder",
			res.TierCounts, cfg.Connections)
	}
	if res.TierCounts[overload.TierFull] != cfg.Connections {
		t.Fatalf("zero pressure did not reclaim every resumed flow: tiers=%v reclaims=%d",
			res.TierCounts, res.Reclaims)
	}
	if res.Reclaims == 0 {
		t.Fatal("resumed degraded tiers produced no reclaim transitions")
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations after mid-overload resume: %d", v)
	}
	for _, cr := range res.Conns {
		if cr.SndLog.Len() == 0 {
			t.Errorf("conn %d produced no samples after reclaim", cr.ID)
		}
	}
}

// TestParkedResumeWithoutGovernorPollsEveryFlow: tiers land only through
// the governor, so a snapshot with every flow parked, resumed with no
// Overload config, resumes every flow at full coverage in both fleets —
// nothing would ever reclaim a parked flow.
func TestParkedResumeWithoutGovernorPollsEveryFlow(t *testing.T) {
	testutil.NoLeaks(t)
	parked := func(flows int) *Snapshot {
		s := &Snapshot{Version: SnapshotVersion, Seed: 5, Flows: flows, Tiers: make([]overload.Tier, flows)}
		for i := range s.Tiers {
			s.Tiers[i] = overload.TierParked
		}
		return s
	}

	scfg := scaleTestConfig(5, 64)
	scfg.Duration = 2 * units.Second
	scfg.Shards = 2
	scfg.Resume = parked(scfg.Flows)
	sf := NewScale(scfg)
	for _, sh := range sf.shards {
		for slot, tier := range sh.tier {
			if tier != uint8(overload.TierFull) {
				t.Fatalf("scale flow %d resumed in tier %d without a governor", sh.ids[slot], tier)
			}
		}
	}
	if res := sf.Run(); res.ParkedSkips != 0 || res.Polls < uint64(scfg.Flows) {
		t.Fatalf("scale fleet: %d polls, %d parked skips", res.Polls, res.ParkedSkips)
	}

	cfg := Config{Seed: 5, Connections: 4, Duration: 2 * units.Second, Shards: 2}
	cfg.Resume = parked(cfg.Connections)
	res := New(cfg).Run()
	for _, cr := range res.Conns {
		if cr.Tier != overload.TierFull || cr.SndLog.Len() == 0 {
			t.Fatalf("conn %d: tier %d, %d sender measurements", cr.ID, cr.Tier, cr.SndLog.Len())
		}
	}
}
