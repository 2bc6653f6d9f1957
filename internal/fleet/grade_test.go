package fleet

import (
	"testing"

	"element/internal/core"
	"element/internal/stats"
	"element/internal/units"
	"element/internal/waterfall"
)

// TestPackedGradeMatchesSlices: what a monitor's drain grades — its packed
// stitched series against its recorder's packed truth
// (core.CheckSenderLog, core.CheckReceiverLog) — is what the slice graders
// say of the same series decoded, BoundCheck and Coverage alike, on the
// fanout_rpc shape at seeds 1–3. Each sender series also gets samples
// whose windows begin and end exactly on the truth's block edges.
func TestPackedGradeMatchesSlices(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := fanoutRPCConfig(seed)
		cfg.Waterfall = waterfall.New()
		f := New(cfg)
		// Drain lets go of every truth sink; fan-out opens every
		// connection at t = 0, so each exists once New returns.
		gts := make([]*waterfall.Truth, len(f.monitors))
		for i, m := range f.monitors {
			gts[i] = m.gt
		}
		res := f.Run()
		var sum core.BoundCheck
		for i, m := range f.monitors {
			gt := gts[i]
			snd := withBlockEdges(&m.sndLog, &gt.Sender, f.cfg.Interval)
			checkPackedGrade(t, snd, &m.rcvLog, &gt.Sender, &gt.Receiver, f.cfg.Interval)
			bc, _ := core.CheckSenderLog(&m.sndLog, &gt.Sender, f.cfg.Interval)
			sum.Merge(bc)
		}
		if sum != res.Sender || sum.Checked == 0 {
			t.Fatalf("seed %d: the monitors' packed grades sum to %+v, the fleet reported %+v", seed, sum, res.Sender)
		}
	}
}

// withBlockEdges is log followed by one sample per pair of adjacent truth
// blocks, stamped at the later block's first time and bounded so that its
// sender window begins at the earlier one's.
func withBlockEdges(log *stats.Log[core.Measurement], truth *stats.Log[stats.Sample], interval units.Duration) *stats.Log[core.Measurement] {
	var out stats.Log[core.Measurement]
	for m := range log.All() {
		out.Append(m)
	}
	for b := 1; b*stats.LogBlock < truth.Len(); b++ {
		at := truth.BlockTime(b)
		out.Append(core.Measurement{
			At: at, Delay: units.Duration(b%7) * units.Millisecond, Confidence: core.ConfidenceHigh,
			ErrBound: max(at.Sub(truth.BlockTime(b-1))-2*interval, 0),
		})
	}
	return &out
}

// checkPackedGrade grades the packed series, and the same series decoded
// through the slice entry points, and fails on any difference.
func checkPackedGrade(t *testing.T, snd, rcv *stats.Log[core.Measurement], sndTruth, rcvTruth *stats.Log[stats.Sample], interval units.Duration) {
	t.Helper()
	bc, _ := core.CheckSenderLog(snd, sndTruth, interval)
	if want := core.CheckSenderBounds(snd.Collect(), sndTruth.Collect(), interval); bc != want {
		t.Fatalf("sender: packed grade %+v, slices %+v", bc, want)
	}
	bc, _ = core.CheckReceiverLog(rcv, rcvTruth)
	if want := core.CheckReceiverBounds(rcv.Collect(), rcvTruth.Collect()); bc != want {
		t.Fatalf("receiver: packed grade %+v, slices %+v", bc, want)
	}
}
