package exp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/units"
	"element/internal/waterfall"
)

// TestObserversGolden pins everything the observers record against the
// commit before their per-packet structures were replaced (5bea3a9, where
// these constants were computed by this same test): the benchmark's
// lossy_mixed configuration — BBR, two cubics and a reno over CoDel, a
// fifth of segments retransmitted, waterfall and link taps on — for 2
// simulated seconds. Each hash covers one surface in full: every
// OnFinalize record, every sample of the three ground-truth series, every
// Estimates.Log entry, the drop markers, and the jsonl and ascii waterfall
// exports. A mismatch means an observer now records something else; the
// surface named says which. Do not update a constant casually.
func TestObserversGolden(t *testing.T) {
	wf := waterfall.New()
	s := Build(ScenarioConfig{
		Seed: 1, Rate: 50 * units.Mbps, RTT: 40 * units.Millisecond,
		Disc: aqm.KindCoDel, Duration: 2 * units.Second,
		Flows: []FlowSpec{
			{CC: cc.KindCubic, Element: true},
			{CC: cc.KindCubic, Minimize: true},
			{CC: cc.KindBBR, Element: true},
			{CC: cc.KindReno, Element: true},
		},
		Waterfall: wf, Telemetry: telemetry.New(),
	})

	finals := fnv.New64a()
	nFinals := 0
	for _, fr := range s.Flows {
		id := uint64(fr.Conn.FlowID)
		fr.WF.OnFinalize(func(start, end uint64, gen int, b waterfall.Bounds) {
			nFinals++
			hashU64(finals, id, start, end, uint64(gen))
			for _, at := range b {
				hashU64(finals, uint64(at))
			}
		})
	}
	s.Run()

	truth, logs, drops := fnv.New64a(), fnv.New64a(), fnv.New64a()
	nTruth, nLogs, nDrops := 0, 0, 0
	for _, fr := range s.Flows {
		for _, series := range []stats.Series{fr.GT.SenderDelay(), fr.GT.NetworkDelay(), fr.GT.ReceiverDelay()} {
			nTruth += len(series)
			hashU64(truth, uint64(len(series)))
			for _, x := range series {
				hashU64(truth, uint64(x.At), uint64(x.Delay), uint64(x.Bytes))
			}
		}
		for _, log := range [][]core.Measurement{fr.Sender.Estimates().Log(), fr.Receiver.Estimates().Log()} {
			nLogs += len(log)
			hashU64(logs, uint64(len(log)))
			for _, m := range log {
				hashU64(logs, uint64(m.At), uint64(m.Delay), uint64(m.Cwnd), uint64(m.Ssthresh),
					uint64(m.RTT), uint64(m.Confidence), uint64(m.ErrBound))
			}
		}
		// The series accessor and the log must still describe the same samples.
		if n, m := len(fr.Sender.Estimates().Series()), len(fr.Sender.Estimates().Log()); n != m {
			t.Fatalf("flow %d: %d series samples but %d log entries", fr.Conn.FlowID, n, m)
		}
		nDrops += len(fr.WF.Drops())
		for _, d := range fr.WF.Drops() {
			hashU64(drops, d.Seq, uint64(d.Gen), uint64(d.At), uint64(d.Kind))
		}
	}
	var jsonl, ascii bytes.Buffer
	if err := wf.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := wf.WriteASCII(&ascii); err != nil {
		t.Fatal(err)
	}
	hj, ha := fnv.New64a(), fnv.New64a()
	hj.Write(jsonl.Bytes())
	ha.Write(ascii.Bytes())

	for _, c := range []struct{ surface, got, want string }{
		{"finalize records", fmt.Sprintf("%d/%016x", nFinals, finals.Sum64()), "7769/93d21b045010adad"},
		{"trace samples", fmt.Sprintf("%d/%016x", nTruth, truth.Sum64()), "23995/c17304fd411d8322"},
		{"estimate logs", fmt.Sprintf("%d/%016x", nLogs, logs.Sum64()), "3089/52dd4ab8607ce390"},
		// None in the first 2 s: CoDel drops at dequeue, which the tap does
		// not see (ROADMAP item 5), and the queue limit is not reached yet.
		{"drop markers", fmt.Sprintf("%d/%016x", nDrops, drops.Sum64()), "0/cbf29ce484222325"},
		{"jsonl export", fmt.Sprintf("%d/%016x", jsonl.Len(), hj.Sum64()), "2960071/56c9592c5b5e5924"},
		{"ascii export", fmt.Sprintf("%d/%016x", ascii.Len(), ha.Sum64()), "11283/a956f47eeebea8c8"},
	} {
		if c.got != c.want {
			t.Errorf("%s: count/hash %s, the parent commit's %s", c.surface, c.got, c.want)
		}
	}
}

func hashU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}
