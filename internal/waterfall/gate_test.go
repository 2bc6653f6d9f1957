package waterfall

import (
	"testing"

	"element/internal/pkt"
)

// TestGateSwitchesLinkTaps: link taps dispatch a bound flow's data
// packets to its recorder unless the recorder's gate is shut. The gate's
// floor applies to trace hooks only, so an open gate dispatches every
// data packet, whatever the floor; ACKs are never dispatched.
func TestGateSwitchesLinkTaps(t *testing.T) {
	wf := New()
	r := wf.NewFlow()
	wf.Bind(1, r)
	data := &pkt.Packet{FlowID: 1, PayloadLen: 100}
	if got := wf.dataRecorder(data); got != r {
		t.Fatalf("ungated: data dispatched to %p, want %p", got, r)
	}
	for _, c := range []struct {
		on    bool
		floor uint64
		want  *Recorder
	}{
		{false, 0, nil},
		{true, 1 << 40, r},
		{true, 0, r},
		{false, 1 << 40, nil},
	} {
		r.Gate(c.on, c.floor)
		if got := wf.dataRecorder(data); got != c.want {
			t.Fatalf("gate on %v, floor %d: data dispatched to %p, want %p", c.on, c.floor, got, c.want)
		}
	}
	r.Gate(true, 0)
	if got := wf.dataRecorder(&pkt.Packet{FlowID: 1}); got != nil {
		t.Fatalf("an ACK dispatched to %p", got)
	}
}
