// Package cc implements the congestion-control algorithms the paper
// evaluates: NewReno, CUBIC (the Linux default, RFC 8312), Vegas
// (delay-based), and a simplified BBR (model-based, with pacing). All run
// behind the Algorithm interface consumed by the TCP sender in
// internal/tcp.
package cc

import (
	"fmt"
	"math/rand"

	"element/internal/units"
)

// Algorithm is a congestion-control state machine for one connection.
// The TCP sender invokes the On* callbacks and consults CwndBytes (and
// PacingRate, if nonzero) when deciding whether to transmit.
type Algorithm interface {
	// Name identifies the algorithm ("cubic", "vegas", ...).
	Name() string
	// OnAck is invoked for every ACK that advances snd_una. rttSample is
	// zero when the ACK did not yield a valid RTT measurement (e.g. a
	// retransmitted segment). inFlight is bytes outstanding after the ACK.
	OnAck(now units.Time, ackedBytes int, rttSample units.Duration, inFlight int, inRecovery bool)
	// OnLoss is invoked once per loss event (fast retransmit entered).
	OnLoss(now units.Time)
	// OnECN is invoked when the receiver echoes a congestion mark; loss-
	// based algorithms treat it as a (at most once per RTT) loss event.
	OnECN(now units.Time)
	// OnRTO is invoked on a retransmission timeout.
	OnRTO(now units.Time)
	// CwndBytes reports the current congestion window in bytes.
	CwndBytes() int
	// SsthreshSegs reports the slow-start threshold in segments, for
	// TCP_INFO reporting. Algorithms without one report a large value.
	SsthreshSegs() int
	// PacingRate reports the pacing rate in bits/s; zero means the sender
	// is purely window-limited (no pacing).
	PacingRate() units.Rate
}

// Kind names an algorithm for configuration.
type Kind string

// Supported algorithms.
const (
	KindReno  Kind = "reno"
	KindCubic Kind = "cubic"
	KindVegas Kind = "vegas"
	KindBBR   Kind = "bbr"
)

// New constructs an algorithm by kind with the given MSS.
func New(kind Kind, mss int, rng *rand.Rand) (Algorithm, error) {
	switch kind {
	case KindReno:
		return NewReno(mss), nil
	case KindCubic, "":
		return NewCubic(mss), nil
	case KindVegas:
		return NewVegas(mss), nil
	case KindBBR:
		return NewBBR(mss), nil
	default:
		return nil, fmt.Errorf("cc: unknown algorithm %q (have: %s, %s, %s, %s)",
			kind, KindReno, KindCubic, KindVegas, KindBBR)
	}
}

// MustNew is New for static configuration; it panics on unknown kinds.
func MustNew(kind Kind, mss int, rng *rand.Rand) Algorithm {
	a, err := New(kind, mss, rng)
	if err != nil {
		panic(err)
	}
	return a
}

// initialCwndSegs is the standard initial window (RFC 6928).
const initialCwndSegs = 10

// maxSsthreshSegs stands in for "infinity" in TCP_INFO reports.
const maxSsthreshSegs = 1 << 20
