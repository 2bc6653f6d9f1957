// Package waterfall answers the paper's title question — *where does slow
// data go to wait?* — at per-queue granularity. A Recorder is a
// connection's one stamp machine: it follows each byte range through
// every stage it can wait in,
//
//	app write → sndbuf residency → TCP send/retransmit wait → link+AQM
//	queue → wire (serialization+propagation) → reassembly (out-of-order
//	wait) → rcvbuf residency → app read
//
// and produces, per flow, a set of spans (stage, byte range, enter/exit
// virtual time, retransmit generation) plus a per-stage residency breakdown
// whose stages sum — within a reported residual — to the end-to-end delay.
// From the same stamps it derives, when a Truth sink is attached, the
// paper's three ground-truth series (sender host / network / receiver
// host, §4.3) that internal/trace presents and ELEMENT is graded against.
//
// Instrumentation follows the telemetry discipline: recorders attach
// through optional hooks (stack.TraceHooks, aqm.TapHooks, netem link taps).
// A recorder without a waterfall (NewTruth) installs only the four stamps
// ground truth reads and attributes nothing. Timestamps telescope —
// each stage's exit is the next stage's entry — so the per-stage sums
// reconcile exactly against the write→read delay, and the three-component
// grouping (sndbuf | retx+queue+wire | reassembly+rcvbuf) reconciles
// against the ground truth and ELEMENT's estimates.
package waterfall

import (
	"iter"
	"slices"
	"sort"

	"element/internal/aqm"
	"element/internal/netem"
	"element/internal/pkt"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// Stage identifies one waiting place in the pipeline. Stages are ordered:
// stage k's exit time is stage k+1's entry time for a given byte range.
type Stage uint8

// The pipeline stages, in byte-range traversal order.
const (
	// StageSndbuf is socket-buffer residency: app write → first TCP
	// transmit of the range.
	StageSndbuf Stage = iota
	// StageRetx is retransmit wait: first transmit → the transmit of the
	// generation that actually delivered the bytes (zero when the first
	// copy got through).
	StageRetx
	// StageQueue is link/AQM queue residency at the bottleneck.
	StageQueue
	// StageWire is serialization plus propagation: queue exit → receiver
	// TCP.
	StageWire
	// StageReassembly is out-of-order wait in the receiver's reassembly
	// queue: TCP receive → in-order (rcv_nxt advance).
	StageReassembly
	// StageRcvbuf is receive-buffer residency: in-order → app read.
	StageRcvbuf

	// NumStages counts the pipeline stages.
	NumStages = 6
)

// String names the stage as used in exports and reports.
func (s Stage) String() string {
	switch s {
	case StageSndbuf:
		return "sndbuf"
	case StageRetx:
		return "retx"
	case StageQueue:
		return "queue"
	case StageWire:
		return "wire"
	case StageReassembly:
		return "reassembly"
	case StageRcvbuf:
		return "rcvbuf"
	}
	return "unknown"
}

// Glyph is the single-letter code used in the ASCII waterfall.
func (s Stage) Glyph() byte {
	switch s {
	case StageSndbuf:
		return 'S'
	case StageRetx:
		return 'R'
	case StageQueue:
		return 'Q'
	case StageWire:
		return 'W'
	case StageReassembly:
		return 'O'
	case StageRcvbuf:
		return 'B'
	}
	return '?'
}

// Span is one stage traversal of one byte range, in virtual time.
type Span struct {
	Stage Stage
	Start uint64 // first byte of the range
	End   uint64 // one past the last byte
	From  units.Time
	To    units.Time
	Gen   int // retransmit generation that delivered the range (0 = first)
}

// DropKind classifies a recorded packet drop.
type DropKind uint8

// Drop kinds.
const (
	// DropQueue is a rejection at the queue's front door: the limit
	// reached, or an AQM that drops on enqueue. Drops a discipline makes
	// at dequeue (CoDel and FQ-CoDel head drops) are not here: the link
	// tap has no event for them (see aqm.TapHooks), so Drops() and
	// Breakdown.QueueDrops count enqueue rejections only.
	DropQueue DropKind = iota
	// DropWire is a random loss after serialization.
	DropWire
)

func (k DropKind) String() string {
	if k == DropQueue {
		return "queue"
	}
	return "wire"
}

// Drop marks one lost packet copy (the retransmit-wait explanation).
type Drop struct {
	Seq  uint64
	Gen  int
	At   units.Time
	Kind DropKind
}

// Resize marks a send-buffer capacity change.
type Resize struct {
	At       units.Time
	From, To int
}

// Time, AppendDeltas and AppendDecoded are Drop's stats.Log codec: the differences of
// its four fields.
func (d Drop) Time() units.Time { return d.At }

// AppendDeltas appends next's differences, each from the one before,
// starting from d.
func (d Drop) AppendDeltas(dst []byte, next []Drop) []byte {
	for _, v := range next {
		dst = stats.AppendVarint(dst, int64(v.Seq-d.Seq))
		dst = stats.AppendVarint(dst, int64(v.Gen-d.Gen))
		dst = stats.AppendVarint(dst, int64(v.At-d.At))
		dst = stats.AppendVarint(dst, int64(int8(v.Kind-d.Kind)))
		d = v
	}
	return dst
}

// AppendDecoded appends the n drops after d that src begins with.
func (d Drop) AppendDecoded(dst []Drop, src []byte, n int) ([]Drop, int) {
	i := 0
	for range n {
		var dSeq, dGen, dAt, dKind int64
		dSeq, i = stats.Varint(src, i)
		dGen, i = stats.Varint(src, i)
		dAt, i = stats.Varint(src, i)
		dKind, i = stats.Varint(src, i)
		d = Drop{Seq: d.Seq + uint64(dSeq), Gen: d.Gen + int(dGen), At: d.At + units.Time(dAt), Kind: d.Kind + DropKind(dKind)}
		dst = append(dst, d)
	}
	return dst, i
}

// Time, AppendDeltas and AppendDecoded are Resize's stats.Log codec: the differences of
// its three fields.
func (r Resize) Time() units.Time { return r.At }

// AppendDeltas appends next's differences, each from the one before,
// starting from r.
func (r Resize) AppendDeltas(dst []byte, next []Resize) []byte {
	for _, v := range next {
		dst = stats.AppendVarint(dst, int64(v.At-r.At))
		dst = stats.AppendVarint(dst, int64(v.From-r.From))
		dst = stats.AppendVarint(dst, int64(v.To-r.To))
		r = v
	}
	return dst
}

// AppendDecoded appends the n resizes after r that src begins with.
func (r Resize) AppendDecoded(dst []Resize, src []byte, n int) ([]Resize, int) {
	i := 0
	for range n {
		var dAt, dFrom, dTo int64
		dAt, i = stats.Varint(src, i)
		dFrom, i = stats.Varint(src, i)
		dTo, i = stats.Varint(src, i)
		r = Resize{At: r.At + units.Time(dAt), From: r.From + int(dFrom), To: r.To + int(dTo)}
		dst = append(dst, r)
	}
	return dst, i
}

// Note is a scenario-level annotation — an injected fault, a phase
// change — rendered alongside the spans by every exporter so delay
// excursions can be matched to their cause.
type Note struct {
	At     units.Time
	Name   string
	Detail string
}

// Waterfall owns the per-flow recorders of one simulation run. Like
// telemetry.Telemetry it is engine-agnostic: bind it with SetClock.
// All methods are nil-safe so call sites need no guards.
type Waterfall struct {
	clock func() units.Time
	recs  []*Recorder
	byID  map[int]*Recorder

	notes     []Note
	lostNotes int

	// joinOnly: the recorders retain no ranges, drop or resize markers
	// and the waterfall no notes (NewJoinOnly).
	joinOnly bool

	// Telemetry handles (nil when uninstrumented).
	stageH [NumStages]*telemetry.Histogram
	e2eH   *telemetry.Histogram

	// Streaming handles (nil when no stream is attached): per-stage
	// windowed delay sketches observed at each range's read time.
	stageS [NumStages]*stream.Series
	e2eS   *stream.Series
}

// New returns an empty waterfall.
func New() *Waterfall { return &Waterfall{byID: map[int]*Recorder{}} }

// NewJoinOnly returns an empty waterfall kept for its recorders'
// aggregates and for what joins on their OnFinalize (internal/reqtrace).
// Its recorders finalize, aggregate, call OnFinalize and observe
// telemetry and stream series as New's do, and count drop and resize
// markers under the same cap, so a Breakdown differs from a kept
// recorder's only in Retained; but they retain no ranges or markers, and
// it keeps no notes: Spans, Drops, Resizes and Notes read empty.
func NewJoinOnly() *Waterfall {
	w := New()
	w.joinOnly = true
	return w
}

// SetClock binds w's and its recorders' clock (typically sim.Engine.Now).
func (w *Waterfall) SetClock(fn func() units.Time) {
	if w == nil {
		return
	}
	w.clock = fn
	for _, r := range w.recs {
		r.clock = fn
	}
}

// readClock reads clock, or 0 when none is bound.
func readClock(clock func() units.Time) units.Time {
	if clock == nil {
		return 0
	}
	return clock()
}

// Instrument registers per-stage residency histograms (<stage>_seconds and
// e2e_seconds) under sc, so -metrics-summary style snapshots include the
// waterfall's attribution. A nil scope is a no-op.
func (w *Waterfall) Instrument(sc *telemetry.Scope) {
	if w == nil || sc == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		w.stageH[s] = sc.Histogram(s.String() + "_seconds")
	}
	w.e2eH = sc.Histogram("e2e_seconds")
}

// StreamTo registers per-stage windowed delay series (<stage>_delay and
// e2e_delay) on st, so every finalized byte range feeds the streaming
// sketches at its read time in addition to the run-wide histograms.
// Call before the stream's first observation; nil disables.
func (w *Waterfall) StreamTo(st *stream.Stream) {
	if w == nil || st == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		w.stageS[s] = st.Series(s.String() + "_delay")
	}
	w.e2eS = st.Series("e2e_delay")
}

// NewFlow creates a recorder for one connection. Pass its SenderHooks and
// ReceiverHooks into the connection's ConnConfig, then Bind it to the
// flow ID the Dial returned.
func (w *Waterfall) NewFlow() *Recorder {
	if w == nil {
		return nil
	}
	r := &Recorder{wf: w, clock: w.clock}
	w.recs = append(w.recs, r)
	return r
}

// Bind associates a recorder with its flow ID so link taps can dispatch
// packets to it while its Gate is open. Call after Dial, before traffic.
func (w *Waterfall) Bind(flowID int, r *Recorder) {
	if w == nil || r == nil {
		return
	}
	r.flowID = flowID
	w.byID[flowID] = r
}

// Note records a scenario-level annotation at the current virtual time.
// Nil-safe; retention is bounded like the drop/resize markers.
func (w *Waterfall) Note(name, detail string) {
	if w == nil || w.joinOnly {
		return
	}
	if len(w.notes) >= maxMarks {
		w.lostNotes++
		return
	}
	w.notes = append(w.notes, Note{At: readClock(w.clock), Name: name, Detail: detail})
}

// Notes returns the recorded annotations in time order.
func (w *Waterfall) Notes() []Note {
	if w == nil {
		return nil
	}
	return w.notes
}

// Flows returns the recorders in creation order.
func (w *Waterfall) Flows() []*Recorder {
	if w == nil {
		return nil
	}
	return w.recs
}

// TapLink attaches the waterfall to a link so queue residency and wire
// drops are observed for every bound flow whose data crosses it. Tap both
// directions of a path when reverse-direction flows exist; packets of
// unbound flows are ignored. The tap's only state is on the packets it
// sees: a bound flow's accepted data copy is marked pkt.Packet.Tapped and
// stamped DequeuedAt when it leaves the queue.
func (w *Waterfall) TapLink(l *netem.Link) {
	if w == nil || l == nil {
		return
	}
	l.Tap(aqm.TapHooks{
		Enqueued: func(p *pkt.Packet, now units.Time, accepted bool) {
			if r := w.dataRecorder(p); r != nil {
				r.onLinkEnqueue(p, now, accepted)
			}
		},
		Dequeued: func(p *pkt.Packet, now units.Time) {
			if r := w.dataRecorder(p); r != nil {
				r.onLinkDequeue(p, now)
			}
		},
	}, func(p *pkt.Packet) {
		if r := w.dataRecorder(p); r != nil {
			r.onLinkLost(p)
		}
	})
}

// dataRecorder resolves the recorder for a data packet (ACKs are ignored),
// nil while its gate is shut: the floor applies to trace hooks only.
func (w *Waterfall) dataRecorder(p *pkt.Packet) *Recorder {
	if p.PayloadLen == 0 {
		return nil
	}
	if r := w.byID[p.FlowID]; r != nil && !r.shut(true) {
		return r
	}
	return nil
}

// --- Recorder -------------------------------------------------------------

// maxRanges bounds per-flow span retention for exports: when full, the
// retained set is decimated (every other range dropped, stride doubled), so
// memory stays bounded and exports stay loadable while the *aggregate*
// breakdown remains exact over all ranges. At the ~20 B a live flow's range
// encodes to, a full log holds about 650 KB.
const maxRanges = 1 << 15

// maxMarks bounds the drop/resize marker lists.
const maxMarks = 4096

// writeStamp records an app write: the stream extended to end at time
// at.
type writeStamp struct {
	end uint64
	at  units.Time
}

// segRec tracks one transmitted segment's sender-side boundary times.
type segRec struct {
	seq     uint64
	n       uint32     // length: a segment is at most one MSS
	writeAt units.Time // covering app write
	firstTx units.Time
	lastTx  units.Time // latest (re)transmission
}

func (s *segRec) end() uint64 { return s.seq + uint64(s.n) }

// numBounds is the number of boundary timestamps per range: NumStages
// stages have NumStages+1 fenceposts (write, firstTx, tx, deq, rcv,
// in-order, read).
const numBounds = NumStages + 1

// Bounds is one finalized byte range's boundary timestamps: the
// NumStages+1 fenceposts (write, firstTx, tx, deq, rcv, in-order, read),
// clamped monotone so stage k's duration is Bounds[k+1]-Bounds[k] and
// the stages telescope exactly to write→read. This is the joint surface
// request-scoped layers (internal/reqtrace) build on.
type Bounds = [numBounds]units.Time

// arrival is a received byte range with every upstream boundary
// snapshotted, waiting for in-order release and the app read.
type arrival struct {
	start, end uint64
	gen        int
	// b[0..4] = writeAt, firstTx, txAt, deqAt, rcvAt; b[5] (inAt) is
	// stamped by onInOrder. The read fencepost is finalize's argument.
	b [NumStages]units.Time
}

// rangeRec is a finalized byte range: all boundaries known, clamped
// monotone.
type rangeRec struct {
	start, end uint64
	gen        int
	b          [numBounds]units.Time
}

// Time, AppendDeltas and AppendDecoded are rangeRec's stats.Log codec: ten
// varints, start − the previous range's end, end − start, gen, b[0] − the
// previous range's b[0], then b[i] − b[i−1] for each later fencepost.
// Ranges abut and their fenceposts are monotone, so a live flow's range
// takes about 20 B. Its time is the read, the order ranges retire in.
func (rr rangeRec) Time() units.Time { return rr.b[numBounds-1] }

// AppendDeltas appends next's differences, each from the one before,
// starting from rr.
func (rr rangeRec) AppendDeltas(dst []byte, next []rangeRec) []byte {
	end, write := rr.end, rr.b[0]
	for i := range next {
		v := &next[i]
		dst = stats.AppendVarint(dst, int64(v.start-end))
		dst = stats.AppendVarint(dst, int64(v.end-v.start))
		dst = stats.AppendVarint(dst, int64(v.gen))
		dst = stats.AppendVarint(dst, int64(v.b[0]-write))
		for k := 1; k < numBounds; k++ {
			dst = stats.AppendVarint(dst, int64(v.b[k]-v.b[k-1]))
		}
		end, write = v.end, v.b[0]
	}
	return dst
}

// AppendDecoded appends the n ranges after rr that src begins with.
func (rr rangeRec) AppendDecoded(dst []rangeRec, src []byte, n int) ([]rangeRec, int) {
	i := 0
	for range n {
		var gap, size, gen, dw int64
		gap, i = stats.Varint(src, i)
		size, i = stats.Varint(src, i)
		gen, i = stats.Varint(src, i)
		dw, i = stats.Varint(src, i)
		v := rangeRec{start: rr.end + uint64(gap), gen: int(gen)}
		v.end = v.start + uint64(size)
		v.b[0] = rr.b[0] + units.Time(dw)
		for k := 1; k < numBounds; k++ {
			var d int64
			d, i = stats.Varint(src, i)
			v.b[k] = v.b[k-1] + units.Time(d)
		}
		rr = v
		dst = append(dst, v)
	}
	return dst, i
}

// aggregate is the exact (non-decimated) per-flow attribution state.
type aggregate struct {
	ranges       int
	bytes        uint64
	stageByteSec [NumStages]float64 // ∫ residency over bytes, byte·seconds
	e2eByteSec   float64
	maxE2E       units.Duration
}

// Recorder accumulates the waterfall of one flow. It observes both sides
// of the connection (single-threaded virtual time makes that safe) plus
// the link tap. The tap keeps nothing here: each packet copy carries its
// own queue entry and exit stamps (pkt.Packet.Tapped, EnqueuedAt,
// DequeuedAt) from the tapped link to the receiver, so a copy dropped
// inside the queue leaves no state behind.
type Recorder struct {
	wf     *Waterfall // nil for a truth-only recorder (NewTruth)
	clock  func() units.Time
	flowID int

	// Sender side.
	writes    []writeStamp // live from writeHead
	writeHead int
	segs      []segRec // sorted by seq; live from segHead
	segHead   int

	// Receiver side. The live arrivals are arrivals[arrHead:], sorted by
	// start and disjoint; the consumed prefix before arrHead is slack that
	// a hole-fill near the head may shift into, and is compacted away as
	// the sender side's are (compact).
	arrivals []arrival
	arrHead  int
	inHead   int // the first inHead live arrivals have in-order stamps
	pending  struct {
		valid    bool
		seq, end uint64
		gen      int
		b        [NumStages]units.Time // boundaries 0..4 filled
	}
	readCum uint64

	// truth, when set (RecordTruth), receives the ground-truth samples.
	truth *Truth

	// Finalized ranges, decimated for bounded retention.
	ranges stats.DecimatedLog[rangeRec]
	agg    aggregate

	// Drop and resize markers, at most maxMarks of each. The counts cover
	// every marker within the cap, kept or not: a join-only recorder keeps
	// none, yet its Breakdown counts them as a kept one's does.
	drops                 stats.Log[Drop]
	queueDrops, wireDrops int
	lostDrops             int // drops beyond maxMarks
	resizes               stats.Log[Resize]
	nResizes              int
	lostResizes           int

	// onFinal, when set, observes every finalized byte range with its
	// clamped boundaries — no decimation, in read order.
	onFinal func(start, end uint64, gen int, b Bounds)

	// The gate (Gate): while gated, a trace hook call passes only when
	// open and at or above floor, and a link tap only when open.
	gated, open bool
	floor       uint64
}

// Gate puts the recorder behind a gate, so waterfall granularity can be
// switched on for a flow and off again: from here on link taps reach it
// only while on is true, and a hook call only then and if its bytes lie
// at or above floor. A range that began before the floor would otherwise
// surface with zero boundary stamps and a bogus multi-second residency;
// so, attaching mid-flow, pass the write horizon. Nil-safe.
func (r *Recorder) Gate(on bool, floor uint64) {
	if r != nil {
		r.gated, r.open, r.floor = true, on, floor
	}
}

// shut reports whether the gate stops a hook call; above is whether the
// call lies above the floor by that hook's comparison.
func (r *Recorder) shut(above bool) bool { return r.gated && !(r.open && above) }

// OnFinalize registers fn to observe every finalized byte range of this
// flow: the consumed [start,end) range, its retransmit generation, and
// the monotone-clamped boundary fenceposts. Unlike Spans, the callback
// sees every range (retention decimation does not apply), which is what
// request-scoped layers join on. Nil-safe; one callback per recorder.
func (r *Recorder) OnFinalize(fn func(start, end uint64, gen int, b Bounds)) {
	if r != nil {
		r.onFinal = fn
	}
}

// Truth is one connection's ground truth, the paper's decomposition of
// its delay at the four kernel stamps (§4.3): app write,
// tcp_transmit_skb, tcp_v4_do_rcv, app read. A Recorder attached to it
// (RecordTruth) appends
//
//   - Sender at each first transmission: now − the covering write's time;
//   - Network at each TCPReceive: now − the first transmission of the
//     live segment with the greatest start ≤ the bytes' start;
//   - Receiver at each finalized piece: its read − its TCPReceive, for
//     the piece's bytes.
type Truth struct {
	Sender, Network, Receiver stats.Log[stats.Sample]
}

// RecordTruth makes the recorder derive t from its stamps. Attach it
// before the connection carries data, to a recorder that is never gated,
// since a gated hook stamps nothing. Without a sink the recorder's cost
// is one nil check per hook call.
func (r *Recorder) RecordTruth(t *Truth) { r.truth = t }

// NewTruth returns a recorder with no waterfall, reading clock: its hooks
// are only the four stamps ground truth reads — AppWrite and TCPTransmit
// on the sender, TCPReceive and AppRead on the receiver — and it
// attributes nothing, so its Breakdown is zero. Attach a sink with
// RecordTruth.
func NewTruth(clock func() units.Time) *Recorder { return &Recorder{clock: clock} }

// FlowID reports the bound flow ID (0 before Bind).
func (r *Recorder) FlowID() int { return r.flowID }

// SenderHooks returns the trace hooks to install on the sending socket.
func (r *Recorder) SenderHooks() stack.TraceHooks {
	if r == nil {
		return stack.TraceHooks{}
	}
	if r.wf == nil {
		return stack.TraceHooks{AppWrite: r.onAppWrite, TCPTransmit: r.onTransmit}
	}
	return stack.TraceHooks{
		AppWrite:     r.onAppWrite,
		TCPTransmit:  r.onTransmit,
		SndbufResize: r.onSndbufResize,
	}
}

// ReceiverHooks returns the trace hooks to install on the receiving socket.
func (r *Recorder) ReceiverHooks() stack.TraceHooks {
	if r == nil {
		return stack.TraceHooks{}
	}
	if r.wf == nil {
		return stack.TraceHooks{TCPReceive: r.onTCPReceive, AppRead: r.onAppRead}
	}
	return stack.TraceHooks{
		TCPReceive: r.onTCPReceive,
		TCPInOrder: r.onInOrder,
		AppRead:    r.onAppRead,
		PacketRecv: r.onPacketRecv,
	}
}

// --- Sender side ----------------------------------------------------------

func (r *Recorder) onAppWrite(endSeq uint64, n int) {
	if r.shut(endSeq-uint64(n) >= r.floor) {
		return
	}
	r.writes = append(r.writes, writeStamp{end: endSeq, at: readClock(r.clock)})
}

func (r *Recorder) onSndbufResize(from, to int) {
	if r.shut(true) {
		return
	}
	if r.nResizes >= maxMarks {
		r.lostResizes++
		return
	}
	r.nResizes++
	if !r.wf.joinOnly {
		r.resizes.Append(Resize{At: readClock(r.clock), From: from, To: to})
	}
}

// onTransmit: a first transmission closes the sndbuf stage against the
// covering app write — the bytes left the socket buffer then, as
// tcp_transmit_skb tracing sees it — and is the segment's sender-delay
// sample; a retransmission moves the segment's latest transmit time.
func (r *Recorder) onTransmit(seq uint64, n int, retx bool) {
	if r.shut(seq >= r.floor) {
		return
	}
	now := readClock(r.clock)
	if retx {
		if i, ok := r.findSeg(seq); ok {
			r.segs[i].lastTx = now
		}
		return
	}
	// Covering write: smallest write record with end >= segment end (the
	// paper matches the closest record not exceeding the TCP-layer byte
	// count; at ground-truth precision the covering write is exact).
	var writeAt units.Time
	for end := seq + uint64(n); r.writeHead < len(r.writes); r.writeHead++ {
		if w := r.writes[r.writeHead]; w.end >= end {
			writeAt = w.at
			if r.truth != nil {
				r.truth.Sender.Append(stats.Sample{At: now, Delay: now.Sub(w.at), Bytes: n})
			}
			break
		}
	}
	r.writes, r.writeHead = compact(r.writes, r.writeHead)
	// New data is transmitted in sequence order, so appending keeps segs
	// sorted.
	r.segs = append(r.segs, segRec{seq: seq, n: uint32(n), writeAt: writeAt, firstTx: now, lastTx: now})
}

// findSeg locates the live segment record starting at seq.
func (r *Recorder) findSeg(seq uint64) (int, bool) {
	lo, hi := r.segHead, len(r.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.segs[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.segs) && r.segs[lo].seq == seq {
		return lo, true
	}
	return 0, false
}

// lastSegAt locates the live segment with the greatest start <= seq.
func (r *Recorder) lastSegAt(seq uint64) (segRec, bool) {
	lo, hi := r.segHead, len(r.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.segs[mid].seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > r.segHead {
		return r.segs[lo-1], true
	}
	return segRec{}, false
}

// coveringSeg locates the live segment containing seq.
func (r *Recorder) coveringSeg(seq uint64) (segRec, bool) {
	s, ok := r.lastSegAt(seq)
	return s, ok && seq < s.end()
}

// --- Link tap -------------------------------------------------------------

// onLinkEnqueue marks an accepted copy as tapped; its entry stamp is the
// EnqueuedAt the discipline has just written. A flow never sends two data
// copies with the same (seq, gen) through a tapped link (sndNxt only grows
// and every retransmission bumps gen; stack's TestTappedCopiesAreUnique),
// so the packet names its copy as the (seq, gen) key once did.
func (r *Recorder) onLinkEnqueue(p *pkt.Packet, now units.Time, accepted bool) {
	if !accepted {
		r.recordDrop(Drop{Seq: p.Seq, Gen: p.Gen, At: now, Kind: DropQueue})
		return
	}
	p.Tapped = true
}

func (r *Recorder) onLinkDequeue(p *pkt.Packet, now units.Time) {
	if p.Tapped {
		p.DequeuedAt = now
	}
}

func (r *Recorder) onLinkLost(p *pkt.Packet) {
	r.recordDrop(Drop{Seq: p.Seq, Gen: p.Gen, At: readClock(r.clock), Kind: DropWire})
}

func (r *Recorder) recordDrop(d Drop) {
	if r.queueDrops+r.wireDrops >= maxMarks {
		r.lostDrops++
		return
	}
	if d.Kind == DropQueue {
		r.queueDrops++
	} else {
		r.wireDrops++
	}
	if !r.wf.joinOnly {
		r.drops.Append(d)
	}
}

// --- Receiver side --------------------------------------------------------

// onPacketRecv snapshots the upstream boundaries of an arriving data
// packet; the TCPReceive calls that follow (same virtual instant) attach
// them to the new byte ranges the packet contributed.
func (r *Recorder) onPacketRecv(p *pkt.Packet) {
	if r.shut(p.Seq >= r.floor) {
		return
	}
	r.pending.valid = true
	r.pending.seq, r.pending.end, r.pending.gen = p.Seq, p.End(), p.Gen
	var b [NumStages]units.Time
	if seg, ok := r.coveringSeg(p.Seq); ok {
		b[StageSndbuf] = seg.writeAt
		b[StageRetx] = seg.firstTx
		if p.Gen == 0 {
			b[StageQueue] = seg.firstTx
		} else {
			b[StageQueue] = seg.lastTx
		}
	}
	if p.Tapped {
		// The link enqueue happens in the same virtual instant as the TCP
		// transmit, so the entry stamp refines the queue boundary for this
		// exact generation.
		b[StageQueue] = p.EnqueuedAt
		b[StageWire] = p.DequeuedAt
		p.Tapped = false
	}
	r.pending.b = b
}

func (r *Recorder) onTCPReceive(seq uint64, n int) {
	if r.shut(seq >= r.floor) {
		return
	}
	now := readClock(r.clock)
	end := seq + uint64(n)
	a := arrival{start: seq, end: end}
	snap := r.pending.valid && seq >= r.pending.seq && end <= r.pending.end
	var seg segRec
	found := false
	if r.truth != nil || !snap {
		seg, found = r.lastSegAt(seq)
	}
	if found && r.truth != nil {
		// Network delay runs from the first transmission of the segment
		// the bytes start in, so a lost segment's recovery wait counts as
		// network delay, as the paper measures it.
		r.truth.Network.Append(stats.Sample{At: now, Delay: now.Sub(seg.firstTx), Bytes: n})
	}
	if snap {
		a.gen = r.pending.gen
		a.b = r.pending.b
	} else if found && seq < seg.end() {
		// No packet-level snapshot (untapped link or hooks installed by a
		// bare harness): fall back to sender-side times; the queue and wire
		// stages then share the tx→rcv interval.
		a.b[StageSndbuf] = seg.writeAt
		a.b[StageRetx] = seg.firstTx
		a.b[StageQueue] = seg.lastTx
	}
	a.b[StageReassembly] = now // rcvAt
	r.insertArrival(a)
}

// insertArrival puts a before the first live arrival that does not start
// earlier. In-order arrival ends in a plain append; filling a hole is one
// copy of the shorter side — the arrivals behind the slot move up, or,
// when the slot is nearer the head (where a retransmission lands) and
// reads have left slack before it, the arrivals ahead of it move down.
// inHead counts from arrHead, so it names the same arrivals either way.
// The search always runs, over exactly the live arrivals: duplicate and
// overlapping deliveries followed by a partial read can leave the queue
// out of order, and where the slot falls then is whatever this probe
// sequence finds — which exports have always depended on.
func (r *Recorder) insertArrival(a arrival) {
	head, n := r.arrHead, len(r.arrivals)
	live := r.arrivals[head:]
	i := head + sort.Search(len(live), func(i int) bool { return live[i].start >= a.start })
	switch {
	case i == n:
		r.arrivals = append(r.arrivals, a)
	case head > 0 && i-head < n-i:
		copy(r.arrivals[head-1:], r.arrivals[head:i])
		r.arrivals[i-1] = a
		r.arrHead--
	default:
		r.arrivals = append(r.arrivals, arrival{})
		copy(r.arrivals[i+1:], r.arrivals[i:])
		r.arrivals[i] = a
	}
}

// onInOrder stamps the reassembly-exit boundary on every arrival released
// by a rcv_nxt advance.
func (r *Recorder) onInOrder(cum uint64) {
	if r.shut(cum > r.floor) {
		return
	}
	now := readClock(r.clock)
	i := r.arrHead + r.inHead
	for i < len(r.arrivals) && r.arrivals[i].end <= cum {
		r.arrivals[i].b[StageRcvbuf] = now
		i++
	}
	// Defensive: rcv_nxt landing inside an arrival (cannot happen with the
	// current TCP reassembly, which releases whole reported ranges).
	if i < len(r.arrivals) && r.arrivals[i].start < cum {
		left := r.arrivals[i]
		left.end = cum
		left.b[StageRcvbuf] = now
		r.arrivals[i].start = cum
		r.arrivals = append(r.arrivals, arrival{})
		copy(r.arrivals[i+1:], r.arrivals[i:])
		r.arrivals[i] = left
		i++
	}
	r.inHead = i - r.arrHead
}

// onAppRead finalizes every arrival the read consumed.
func (r *Recorder) onAppRead(endSeq uint64, n int) {
	if r.shut(endSeq > r.floor) {
		return
	}
	now := readClock(r.clock)
	r.readCum = endSeq
	for r.arrHead < len(r.arrivals) && r.arrivals[r.arrHead].start < endSeq {
		a := r.arrivals[r.arrHead]
		if a.end <= endSeq {
			r.finalize(a, a.start, a.end, now)
			r.arrHead++
			if r.inHead > 0 {
				r.inHead--
			}
			continue
		}
		// Partially read arrival: finalize the consumed prefix.
		r.finalize(a, a.start, endSeq, now)
		r.arrivals[r.arrHead].start = endSeq
		break
	}
	r.arrivals, r.arrHead = compact(r.arrivals, r.arrHead)
	// Drop sender segment records fully below the read horizon; their
	// boundaries have been snapshotted into arrivals already.
	for r.segHead < len(r.segs) && r.segs[r.segHead].end() <= endSeq {
		r.segHead++
	}
	r.segs, r.segHead = compact(r.segs, r.segHead)
}

// compact drops the consumed prefix q[:head] of a head-indexed queue once
// it is at least half of q, keeping the backing array. Each live entry is
// copied at most once per entry consumed before it, and the queue stays
// within about twice its live entries, so its capacity follows the flow's
// window — a reader that keeps up holds a few entries.
func compact[T any](q []T, head int) ([]T, int) {
	if head > 0 && head*2 >= len(q) {
		return q[:copy(q, q[head:])], 0
	}
	return q, head
}

// finalize takes one consumed byte range's receiver truth sample and, on
// a waterfall's recorder, clamps its boundaries monotone (so stages
// telescope exactly to write→read) and folds it into the aggregate.
func (r *Recorder) finalize(a arrival, start, end uint64, readAt units.Time) {
	if r.truth != nil {
		r.truth.Receiver.Append(stats.Sample{At: readAt, Delay: readAt.Sub(a.b[StageReassembly]), Bytes: int(end - start)})
	}
	if r.wf == nil {
		return
	}
	var b Bounds
	copy(b[:], a.b[:])
	b[numBounds-1] = readAt
	if b[StageRcvbuf] == 0 {
		b[StageRcvbuf] = b[StageReassembly] // in-order never stamped: arrived in order
	}
	for i := 1; i < numBounds; i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	bytes := float64(end - start)
	e2e := b[numBounds-1].Sub(b[0])
	for s := 0; s < NumStages; s++ {
		d := b[s+1].Sub(b[s])
		r.agg.stageByteSec[s] += d.Seconds() * bytes
		if r.wf.stageH[s] != nil {
			r.wf.stageH[s].Observe(d.Seconds())
		}
		r.wf.stageS[s].Observe(readAt, d.Seconds())
	}
	r.agg.e2eByteSec += e2e.Seconds() * bytes
	if e2e > r.agg.maxE2E {
		r.agg.maxE2E = e2e
	}
	if r.wf.e2eH != nil {
		r.wf.e2eH.Observe(e2e.Seconds())
	}
	r.wf.e2eS.Observe(readAt, e2e.Seconds())
	r.agg.ranges++
	r.agg.bytes += end - start
	if r.onFinal != nil {
		r.onFinal(start, end, a.gen, b)
	}
	r.retain(rangeRec{start: start, end: end, gen: a.gen, b: b})
}

// retain keeps the range for exports, decimating deterministically once
// the retention cap is reached; a join-only waterfall keeps none.
func (r *Recorder) retain(rr rangeRec) {
	if !r.wf.joinOnly {
		r.ranges.Keep(rr, maxRanges)
	}
}

// Spans materializes the retained ranges as stage spans (zero-duration
// spans are skipped). The aggregate Breakdown covers all ranges exactly;
// Spans may be a decimated subset on very long runs.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return slices.AppendSeq(make([]Span, 0, r.ranges.Len()*NumStages), r.spans())
}

// spans iterates the retained ranges' stage spans in the order Spans
// lists them, decoding as it goes: the exporters walk them once.
func (r *Recorder) spans() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		for rr := range r.ranges.All() {
			for s := 0; s < NumStages; s++ {
				if rr.b[s+1] <= rr.b[s] {
					continue
				}
				sp := Span{
					Stage: Stage(s),
					Start: rr.start,
					End:   rr.end,
					From:  rr.b[s],
					To:    rr.b[s+1],
					Gen:   rr.gen,
				}
				if !yield(sp) {
					return
				}
			}
		}
	}
}

// Drops returns the recorded packet-drop markers, decoded into a fresh
// slice.
func (r *Recorder) Drops() []Drop {
	if r == nil {
		return nil
	}
	return r.drops.Collect()
}

// Resizes returns the recorded send-buffer capacity changes, decoded into
// a fresh slice.
func (r *Recorder) Resizes() []Resize {
	if r == nil {
		return nil
	}
	return r.resizes.Collect()
}
