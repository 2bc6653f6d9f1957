package waterfall

import (
	"slices"
	"testing"

	"element/internal/pkt"
	"element/internal/units"
)

// TestJoinOnlyRetainsNothing drives a recorder of New and one of
// NewJoinOnly through the same hook calls: 200 in-order packets, with a
// queue drop, a wire loss, a send-buffer resize and a note now and then.
// The join-only recorder hands OnFinalize the same ranges, aggregates
// and counts markers the same, but holds no span, marker or note; the
// kept one holds all four, so each check can fail.
func TestJoinOnlyRetainsNothing(t *testing.T) {
	var now units.Time
	type side struct {
		wf    *Waterfall
		r     *Recorder
		final []rangeRec
	}
	open := func(wf *Waterfall) *side {
		wf.SetClock(func() units.Time { return now })
		s := &side{wf: wf, r: wf.NewFlow()}
		s.r.OnFinalize(func(start, end uint64, gen int, b Bounds) {
			s.final = append(s.final, rangeRec{start: start, end: end, gen: gen, b: b})
		})
		return s
	}
	kept, join := open(New()), open(NewJoinOnly())
	for i := uint64(0); i < 200; i++ {
		now = now.Add(100 * units.Microsecond)
		for _, s := range []*side{kept, join} {
			r := s.r
			r.onAppWrite((i+1)*cycleSeg, cycleSeg)
			r.onTransmit(i*cycleSeg, cycleSeg, false)
			p := pkt.Packet{Seq: i * cycleSeg, PayloadLen: cycleSeg, EnqueuedAt: now}
			r.onLinkEnqueue(&p, now, true)
			r.onLinkDequeue(&p, now.Add(units.Millisecond))
			r.onPacketRecv(&p)
			r.onTCPReceive(i*cycleSeg, cycleSeg)
			r.onInOrder((i + 1) * cycleSeg)
			r.onAppRead((i+1)*cycleSeg, cycleSeg)
			if i%10 == 3 {
				dead := pkt.Packet{Seq: (i + 1000) * cycleSeg, PayloadLen: cycleSeg}
				r.onLinkEnqueue(&dead, now, false)
				r.onLinkLost(&dead)
				r.onSndbufResize(int(i), int(i+1))
				s.wf.Note("phase", "step")
			}
		}
	}
	if len(kept.final) != 200 || !slices.Equal(join.final, kept.final) {
		t.Fatalf("OnFinalize saw %d ranges join-only, %d kept, or they differ", len(join.final), len(kept.final))
	}
	k, j := kept.r, join.r
	if len(k.Spans()) == 0 || len(k.Drops()) != 40 || len(k.Resizes()) != 20 || len(kept.wf.Notes()) != 20 {
		t.Fatalf("the kept recorder holds %d spans, %d drops, %d resizes, %d notes: the run shows nothing",
			len(k.Spans()), len(k.Drops()), len(k.Resizes()), len(kept.wf.Notes()))
	}
	if s, d, z, n := len(j.Spans()), len(j.Drops()), len(j.Resizes()), len(join.wf.Notes()); s+d+z+n != 0 {
		t.Fatalf("the join-only recorder holds %d spans, %d drops, %d resizes, %d notes", s, d, z, n)
	}
	// The kept aggregate, less the ranges it retains: the join-only
	// recorder counts the markers it does not keep.
	want := k.Breakdown()
	want.Retained = 0
	if got := j.Breakdown(); got != want || got.Ranges != 200 {
		t.Fatalf("join-only breakdown\n%+v\nkept, less its retention\n%+v", got, want)
	}
}
