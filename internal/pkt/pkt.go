// Package pkt defines the Packet type exchanged between protocol endpoints
// and network elements. It is shared by the TCP stack, the UDP-based
// low-latency protocols, the probing tools, and the queueing disciplines.
//
// Ownership: a *Packet has exactly one owner. Whoever is handed one either
// passes it on or calls Release, and Release is the last thing it does
// with the packet. Observers (taps, trace hooks) borrow the packet for the
// call and copy what they keep; the one write an observer makes is a link
// tap stamping the packet's own Tapped and DequeuedAt, which Release
// resets. DESIGN §9 lists the creators, holders and release points;
// pool.go holds the free list Release returns packets to.
package pkt

import (
	"fmt"

	"element/internal/units"
)

// Flags is a bit set of TCP-style control flags.
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
)

// Has reports whether all bits in f are set.
func (fl Flags) Has(f Flags) bool { return fl&f == f }

// DefaultHeaderLen is the assumed IP+TCP header overhead in bytes.
const DefaultHeaderLen = 40

// Range is a half-open byte range [Start, End) used for SACK blocks.
type Range struct{ Start, End uint64 }

// MaxSackBlocks is how many SACK blocks one packet can carry — what the
// TCP option space allows.
const MaxSackBlocks = 4

// Packet is a network packet in flight or in a queue. Fields beyond the
// universal ones (sizes, flow identity, ECN bits) are interpreted by the
// protocol that created the packet: TCP uses Seq/Ack/Flags, probes carry
// their id in Seq (echoed in Ack), UDP-based protocols number datagrams in
// Seq and put their feedback report in Payload.
//
// The one-byte fields sit together at the end, where they share one word:
// that pays for DequeuedAt, and TestPacketSize holds the struct to 208 B.
type Packet struct {
	// FlowID identifies the flow for fair-queueing and per-flow stats.
	FlowID int

	// PayloadLen is the number of application/transport payload bytes.
	PayloadLen int
	// HeaderLen is the header overhead included in the wire size.
	HeaderLen int

	// TCP fields. Seq is the sequence number of the first payload byte;
	// Ack is the cumulative acknowledgment (valid when FlagACK is set);
	// the control bits are Flags, below.
	Seq uint64
	Ack uint64
	// Wnd is the advertised receive window in bytes (on ACKs).
	Wnd int
	// Sack carries up to a few selective-acknowledgment blocks (received
	// byte ranges above Ack), like the TCP SACK option. The creator builds
	// it on SackBuf, so it aliases the packet's own storage: a Packet that
	// carries blocks is never copied by value.
	Sack []Range

	// Gen is the retransmission generation of a TCP data segment: 0 for the
	// first transmission, incremented on every retransmission of the same
	// sequence range. Attribution tools use it to tell copies of a segment
	// apart inside queues.
	Gen int

	// SentAt is the time the packet left the sender's TCP layer (set by the
	// transport; used for ground-truth tracing and RTT sampling).
	SentAt units.Time
	// EnqueuedAt is stamped by a queueing discipline on enqueue and is the
	// basis for sojourn-time AQMs (CoDel, PIE).
	EnqueuedAt units.Time
	// DequeuedAt is a link tap's dequeue stamp: written when the
	// discipline hands a Tapped packet to the transmitter, and meaningful
	// only while Tapped is set.
	DequeuedAt units.Time

	// Payload carries protocol-private data for non-TCP protocols (the
	// UDP protocols' feedback report). Per-packet state belongs in the
	// fields above: boxing it here costs an allocation per packet.
	Payload any

	sackBuf [MaxSackBlocks]Range // inline storage for Sack
	pool    *Pool                // where Release returns it; nil for a literal

	// Flags are the TCP control bits.
	Flags Flags
	// ECN bits. ECT marks an ECN-capable transport; CE is set by an AQM in
	// place of dropping when ECN is negotiated. ECE is echoed by the
	// receiver back to the sender.
	ECT bool
	CE  bool
	ECE bool
	// Tapped says this copy's EnqueuedAt and DequeuedAt are its pass
	// through a tapped link queue: set by the tap (the waterfall's) on an
	// accepted enqueue, cleared by the observer that reads the stamps when
	// the packet reaches its receiver. A packet dropped in the queue takes
	// its stamps with it to Release.
	Tapped bool

	released bool // set between Release and the next Get
}

// SackBuf returns the packet's inline SACK storage, empty, with capacity
// MaxSackBlocks. Appending up to that many blocks and assigning the result
// to Sack allocates nothing.
func (p *Packet) SackBuf() []Range { return p.sackBuf[:0] }

// Size reports the wire size of the packet in bytes.
func (p *Packet) Size() int {
	h := p.HeaderLen
	if h == 0 {
		h = DefaultHeaderLen
	}
	return h + p.PayloadLen
}

// End reports the sequence number just past the packet's payload.
func (p *Packet) End() uint64 { return p.Seq + uint64(p.PayloadLen) }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d seq=%d len=%d flags=%04b}", p.FlowID, p.Seq, p.PayloadLen, p.Flags)
}
