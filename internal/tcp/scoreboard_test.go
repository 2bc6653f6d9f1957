package tcp

import (
	"fmt"
	"testing"

	"element/internal/cc"
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/units"
)

// The three functions below are the full window scans the endpoint ran on
// every ACK and every send before its scoreboard became incremental, kept
// verbatim as the oracle the counters and cursors are checked against.

// scanPipe estimates the bytes in flight per the RFC 6675 pipe algorithm:
// transmitted, not SACKed, and (unless retransmitted) not lost.
func scanPipe(e *Endpoint) int {
	n := 0
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if s.sacked {
			continue
		}
		if s.lost && s.queued {
			continue // lost and its retransmission not out yet
		}
		n += int(s.end - s.seq)
	}
	return n
}

// scanNextLost returns the first segment queued for retransmission.
func scanNextLost(e *Endpoint) *sentSeg {
	for i := e.sentHead; i < len(e.sent); i++ {
		if e.sent[i].lost && e.sent[i].queued {
			return &e.sent[i]
		}
	}
	return nil
}

// scanSackSummary is the first pass of the old detectLosses, plus a count.
func scanSackSummary(e *Endpoint) (sacked int, highestSacked uint64, latestSackedSentAt units.Time) {
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		if !s.sacked {
			continue
		}
		sacked++
		if s.end > highestSacked {
			highestSacked = s.end
		}
		t := s.sentAt
		if s.retxAt > t {
			t = s.retxAt
		}
		if t > latestSackedSentAt {
			latestSackedSentAt = t
		}
	}
	return
}

// scoreboardErr checks every invariant the package comment states, and the
// maintained summaries against the scans; "" means all hold.
func scoreboardErr(e *Endpoint) string {
	// The window itself.
	if e.sentHead < 0 || e.sentHead > len(e.sent) {
		return fmt.Sprintf("sentHead %d outside [0, %d]", e.sentHead, len(e.sent))
	}
	queued := 0
	for i := e.sentHead; i < len(e.sent); i++ {
		s := &e.sent[i]
		switch {
		case s.end <= s.seq:
			return fmt.Sprintf("sent[%d] is empty: [%d, %d)", i, s.seq, s.end)
		case i > e.sentHead && s.seq != e.sent[i-1].end:
			return fmt.Sprintf("sent[%d] starts at %d, sent[%d] ends at %d", i, s.seq, i-1, e.sent[i-1].end)
		case s.queued && !s.lost, s.sacked && (s.lost || s.queued):
			return fmt.Sprintf("sent[%d] in no state: sacked=%v lost=%v queued=%v", i, s.sacked, s.lost, s.queued)
		case i < e.queuedCursor && s.queued:
			return fmt.Sprintf("sent[%d] is queued below queuedCursor %d", i, e.queuedCursor)
		case i < e.fackCursor && !s.sacked && !s.lost:
			return fmt.Sprintf("sent[%d] is outstanding below fackCursor %d", i, e.fackCursor)
		}
		if s.queued {
			queued++
		}
		if s.sacked {
			if s.run < 1 || i+int(s.run) > len(e.sent) {
				return fmt.Sprintf("sent[%d].run = %d with %d segments", i, s.run, len(e.sent))
			}
			for k := i; k < i+int(s.run); k++ {
				if !e.sent[k].sacked {
					return fmt.Sprintf("sent[%d].run = %d but sent[%d] is not sacked", i, s.run, k)
				}
			}
		}
		if s.lost && !s.queued && s.retxAt > 0 {
			logged := false
			for _, r := range e.retxLog[e.retxHead:] {
				logged = logged || r == retxRec{s.seq, s.retxAt}
			}
			if !logged {
				return fmt.Sprintf("sent[%d] retransmitted at %v is not in retxLog", i, s.retxAt)
			}
		}
	}
	if e.sentHead < len(e.sent) && (e.sent[e.sentHead].seq > e.sndUna || e.sent[len(e.sent)-1].end != e.sndNxt) {
		return fmt.Sprintf("window [%d, %d) does not span snd_una %d to snd_nxt %d",
			e.sent[e.sentHead].seq, e.sent[len(e.sent)-1].end, e.sndUna, e.sndNxt)
	}
	for _, c := range [2]int{e.queuedCursor, e.fackCursor} {
		if c < e.sentHead || c > len(e.sent) {
			return fmt.Sprintf("cursor %d outside the window [%d, %d]", c, e.sentHead, len(e.sent))
		}
	}
	for i := e.retxHead + 1; i < len(e.retxLog); i++ {
		if e.retxLog[i].at < e.retxLog[i-1].at {
			return fmt.Sprintf("retxLog[%d] is earlier than retxLog[%d]", i, i-1)
		}
	}

	// Counters and cursors against the scans.
	if got, want := e.pipeBytes, scanPipe(e); got != want {
		return fmt.Sprintf("pipeBytes = %d, scan says %d", got, want)
	}
	if e.queuedSegs != queued {
		return fmt.Sprintf("queuedSegs = %d, scan says %d", e.queuedSegs, queued)
	}
	if got, want := e.nextQueued(), scanNextLost(e); got != want {
		return fmt.Sprintf("nextQueued = %p, scan says %p", got, want)
	}
	sacked, highest, latest := scanSackSummary(e)
	if e.sackedSegs != sacked || e.highestSacked != highest {
		return fmt.Sprintf("sackedSegs, highestSacked = %d, %d; scan says %d, %d", e.sackedSegs, e.highestSacked, sacked, highest)
	}
	if e.sackedLatest != latest && !(e.latestStale && e.sackedLatest > latest) {
		return fmt.Sprintf("sackedLatest = %v (stale=%v), scan says %v", e.sackedLatest, e.latestStale, latest)
	}

	// The reassembly queue.
	prevEnd, bytes := e.rcvNxt, 0
	for i, iv := range e.ooo {
		if iv.start <= prevEnd || iv.end <= iv.start {
			return fmt.Sprintf("ooo[%d] = [%d, %d) after %d", i, iv.start, iv.end, prevEnd)
		}
		prevEnd, bytes = iv.end, bytes+int(iv.end-iv.start)
	}
	if e.oooBytes != bytes {
		return fmt.Sprintf("oooBytes = %d, intervals hold %d", e.oooBytes, bytes)
	}
	return ""
}

func checkScoreboard(t testing.TB, e *Endpoint) {
	t.Helper()
	if msg := scoreboardErr(e); msg != "" {
		t.Fatal(msg)
	}
}

// TestScoreboardMatchesScans runs whole lossy transfers and compares the
// incremental scoreboard with the full scans after every delivered packet.
func TestScoreboardMatchesScans(t *testing.T) {
	algs := []struct {
		name string
		new  func() cc.Algorithm
	}{
		{"bbr", func() cc.Algorithm { return cc.NewBBR(DefaultMSS) }},     // paced, small flights
		{"cubic", func() cc.Algorithm { return cc.NewCubic(DefaultMSS) }}, // fills the window between losses
		{"held", heldWindow}, // keeps it full through recovery
	}
	for _, alg := range algs {
		for _, window := range []int{64, 512, 4096} {
			t.Run(fmt.Sprintf("%s/window=%d", alg.name, window), func(t *testing.T) {
				x := newLossyPair(alg.new(), window, Config{}, Config{})
				x.dataEvery, x.ackEvery = 9, 4
				x.blackFrom, x.blackTo = units.Time(300*units.Millisecond), units.Time(600*units.Millisecond)
				x.after = func() {
					checkScoreboard(t, x.snd)
					checkScoreboard(t, x.rcv)
				}
				segs := 8 * window
				if segs > 6000 {
					segs = 6000 // the scans make the check quadratic in the window
				}
				if !x.run(segs, 1<<22) {
					t.Fatalf("transfer stalled at snd_una=%d of %d segments", x.snd.SndUna(), segs)
				}
				if x.alg.rtos == 0 || x.snd.Info().TotalRetrans < segs/20 {
					t.Fatalf("scenario too tame: %d RTOs, %d retransmissions", x.alg.rtos, x.snd.Info().TotalRetrans)
				}
			})
		}
	}
}

// TestHandleAckSackZeroAlloc pins the sender's SACK path: an ACK whose
// blocks, most recent first, newly SACK segments of a 4096-segment window
// and mark others lost allocates nothing. The peer's window is closed so no
// retransmission (a packet) goes out.
func TestHandleAckSackZeroAlloc(t *testing.T) {
	const window = 4096
	eng := sim.New(1)
	ep := New(eng, Config{FlowID: 1, CC: heldWindow(), Out: discard})
	ep.HandleAck(&pkt.Packet{Flags: pkt.FlagACK, Wnd: window * DefaultMSS})
	ep.SetAvailable(window * DefaultMSS)
	if ep.packetsOut() != window {
		t.Fatalf("%d segments out, want %d", ep.packetsOut(), window)
	}
	eng.RunFor(10 * units.Millisecond)
	// Every other segment arrives: ACK k reports segment 2k+1 first, then
	// the three blocks below it.
	blocks := make([]pkt.Range, 0, 4)
	ack := &pkt.Packet{Flags: pkt.FlagACK, Wnd: 1}
	k := 0
	step := func() {
		blocks = blocks[:0]
		for j := k; j >= 0 && j > k-4; j-- {
			blocks = append(blocks, sackOf(2*j+1, 2*j+2))
		}
		ack.Sack = blocks
		ep.HandleAck(ack)
		k++
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1500, step); n != 0 {
		t.Fatalf("HandleAck with SACK blocks allocates %v, want 0", n)
	}
	checkScoreboard(t, ep)
	if ep.sackedSegs != k || ep.queuedSegs < k-dupThresh {
		t.Fatalf("after %d ACKs: %d segments sacked, %d queued", k, ep.sackedSegs, ep.queuedSegs)
	}
}

// TestOOOInsertZeroAlloc pins the receiver's reassembly path against a
// queue of 64 holes: an out-of-order arrival that opens a new interval and
// an in-order arrival that closes the lowest hole each allocate exactly one
// object, the ACK they trigger.
func TestOOOInsertZeroAlloc(t *testing.T) {
	ep := New(sim.New(1), Config{FlowID: 1, Out: discard})
	data := &pkt.Packet{FlowID: 1, PayloadLen: DefaultMSS}
	deliver := func(seg int) {
		data.Seq = uint64(seg) * DefaultMSS
		ep.HandleData(data)
	}
	// Segment 0 arrives, then every even one: a hole at every odd one.
	deliver(0)
	top, low := 1, 1
	for ; len(ep.ooo) < 64; top++ {
		deliver(2 * top)
	}
	step := func() {
		deliver(2 * top) // a new interval at the top
		top++
		deliver(2*low - 1) // fills the lowest hole; the interval above it merges
		low++
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 2 {
		t.Fatalf("an out-of-order insert plus an in-order fill allocate %v, want 2 (their ACKs)", n)
	}
	checkScoreboard(t, ep)
	if want := uint64(2*low-1) * DefaultMSS; len(ep.ooo) != 64 || ep.RcvNxt() != want {
		t.Fatalf("queue holds %d intervals above rcv_nxt=%d, want 64 above %d", len(ep.ooo), ep.RcvNxt(), want)
	}
}
