package fleet

import (
	"element/internal/tcpinfo"
	"element/internal/units"
)

// Synthetic closed-form workload for the million-monitor scale mode.
//
// The full fleet simulates every connection through the stack: sockets,
// packets, FIFOs. That fidelity is what makes a 10^6-connection run
// impossible in one process — and it is also unnecessary for exercising
// the monitoring plane, which only ever sees cumulative byte counters
// through TCP_INFO. So the scale mode replaces the stack with a
// closed-form flow: written(t) and acked(t) are pure integer functions
// of (seed, flow id, virtual time). No per-flow state evolves between
// polls; a poll at any instant computes both counters from scratch in a
// few multiplies. That is what lets a shard batch-poll a packed column
// of a hundred thousand flows per tick, and it makes every observable
// trivially shard-count invariant: nothing about a flow depends on
// where or how often it is polled.
//
// The shape mirrors what the paper measures on real senders: a steady
// drain with a small diurnal wobble, punctuated by bufferbloat bursts
// (delay swells to 40–120 ms and recedes) and occasional ACK stalls
// (the acked counter freezes, backlog grows). Time is divided into
// fixed epochs; each epoch independently draws its kind from the flow's
// hash stream, so bursts and stalls arrive at deterministic but
// decorrelated instants across the fleet.

// synthEpoch is the workload's epoch length: each epoch independently
// draws normal/burst/stall behaviour.
const synthEpoch = 500 * units.Millisecond

// Epoch kinds. Probabilities are per epoch: 1/32 stall, 3/32 burst.
const (
	synthNormal = iota
	synthBurst
	synthStall
)

// synthFlow is one flow's immutable parameter block, derived once from
// (seed, id). 32 bytes; the scale shards keep these in a packed slice.
type synthFlow struct {
	rate  int64  // drain rate in bytes/sec (1–8 MB/s)
	base  int64  // base buffer delay in ns (2–20 ms)
	rbase int64  // receiver read lag in ns (1–5 ms)
	hash  uint64 // per-flow stream for epoch draws
}

// synthMix is the splitmix64 finalizer (same family as connSeed): full
// avalanche, so neighbouring flow ids and epoch ordinals decorrelate.
func synthMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthParams derives a flow's parameter block from the run seed and
// flow id. The mapping never depends on shard layout.
func synthParams(seed int64, id int32) synthFlow {
	h := synthMix(uint64(seed) + (uint64(uint32(id))+1)*0x9e3779b97f4a7c15)
	rate := int64(1_000_000 + h%7_000_000)
	h = synthMix(h)
	base := int64(2*units.Millisecond) + int64(h%uint64(18*units.Millisecond))
	h = synthMix(h)
	rbase := int64(units.Millisecond) + int64(h%uint64(4*units.Millisecond))
	return synthFlow{rate: rate, base: base, rbase: rbase, hash: synthMix(h)}
}

// epochKind draws epoch k's kind and burst amplitude (ns) from the
// flow's hash stream.
func (f synthFlow) epochKind(k int64) (kind int, amp int64) {
	e := synthMix(f.hash ^ uint64(k)*0x9e3779b97f4a7c15)
	switch r := e % 32; {
	case r == 0:
		return synthStall, 0
	case r <= 3:
		// Burst: delay amplitude 40–120 ms, well past any sane
		// escalation threshold.
		return synthBurst, int64(40*units.Millisecond) + int64((e>>8)%uint64(80*units.Millisecond))
	default:
		// Normal: a sub-threshold wobble of 0–8 ms.
		return synthNormal, int64((e >> 8) % uint64(8*units.Millisecond))
	}
}

// delayAt is the flow's modelled buffer delay d(t) in ns, given the
// burst amplitude of t's epoch: the base delay plus the amplitude shaped
// by a triangle (0 at epoch edges, peak mid-epoch). A stall epoch's
// amplitude is 0, so its delay is the base. The triangle's slope is
// bounded by 2·amp/E ≤ 0.48, which keeps acked(t) = bytes(t − d(t))
// strictly monotone — the counters a poll reads can never run
// backwards.
func (f synthFlow) delayAt(t units.Time, amp int64) int64 {
	const ep = int64(synthEpoch)
	x := int64(t) % ep
	var tri int64
	if x < ep/2 {
		tri = amp * 2 * x / ep
	} else {
		tri = amp * 2 * (ep - x) / ep
	}
	return f.base + tri
}

// bytesAt converts a (rate, instant) pair to a cumulative byte count
// without overflowing for any virtual time: whole seconds first, then
// the sub-second remainder.
func bytesAt(rate int64, t int64) uint64 {
	if t <= 0 {
		return 0
	}
	sec := t / int64(units.Second)
	rem := t % int64(units.Second)
	return uint64(rate*sec) + uint64(rate*rem/int64(units.Second))
}

// written is the cumulative bytes the application has pushed by t: a
// constant-rate writer.
func (f synthFlow) written(t units.Time) uint64 {
	return bytesAt(f.rate, int64(t))
}

// acked is the cumulative bytes acknowledged by t: the writer's curve
// shifted by the modelled delay, frozen for the duration of a stall
// epoch. Monotone in t (triangle slope bound within epochs; freezes
// only ever resume at or above the frozen value). It draws the epoch
// once.
func (f synthFlow) acked(t units.Time) uint64 {
	const ep = int64(synthEpoch)
	k := int64(t) / ep
	kind, amp := f.epochKind(k)
	if kind == synthStall {
		// Frozen at the epoch-entry value. d(kE) = base exactly (the
		// triangle is zero at epoch edges), so the freeze point is on
		// the curve and the exit at (k+1)E resumes at or above it.
		return bytesAt(f.rate, k*ep-f.base)
	}
	return bytesAt(f.rate, int64(t)-f.delayAt(t, amp))
}

// read is the cumulative bytes the receiving application has consumed
// by t: everything that had been delivered (acked) as of the flow's
// read lag ago. Monotone because acked is, and never ahead of acked —
// so the receive-side lite poll sees a small, well-formed backlog that
// drains to zero during sender stalls.
func (f synthFlow) read(t units.Time) uint64 {
	return f.acked(units.Time(int64(t) - f.rbase))
}

// synthSource adapts a synthFlow to core.InfoSource so an escalated
// flow's full SenderTracker polls it like a real socket. The shard
// advances `now` before each driven poll. Unacked is reported as zero,
// which makes the sanitizer's BEst equal BytesAcked exactly — the
// tracker's estimate then reflects the modelled backlog with no
// segment-quantization slack.
type synthSource struct {
	flow synthFlow
	now  units.Time
}

func (s *synthSource) GetsockoptTCPInfo() tcpinfo.TCPInfo {
	const mss = 1448
	acked := s.flow.acked(s.now)
	return tcpinfo.TCPInfo{
		BytesAcked:  acked,
		SndMSS:      mss,
		RcvMSS:      mss,
		SegsOut:     int(s.flow.written(s.now)/mss) + 1,
		SegsIn:      int(acked/mss) + 1,
		SndCwnd:     64,
		SndSsthresh: 128,
		RTT:         20 * units.Millisecond,
		RTTVar:      2 * units.Millisecond,
		SndBuf:      1 << 20,
	}
}

func (s *synthSource) SetSndBuf(int) {}
