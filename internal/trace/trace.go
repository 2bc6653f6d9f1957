// Package trace is the simulator's analogue of the paper's instrumented
// perf kernel profiler (§4.3): the ground-truth sender-side, network and
// receiver-side delays that ELEMENT's user-level estimates are judged
// against, from exact per-byte stamps at the four decomposition points of
// Figure 1/5 — application write, TCP transmit (tcp_transmit_skb), TCP
// receive (tcp_v4_do_rcv), application read.
//
// The stamps are a waterfall.Recorder's, the one stamp machine a
// connection has: a Collector is a view of the waterfall.Truth a recorder
// derives, either the connection's own recorder (Of) or a truth-only one
// that installs only the four stamps (New).
package trace

import (
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/waterfall"
)

// Sample and Series alias the shared statistics types so ground truth and
// ELEMENT's estimates compare directly.
type Sample = stats.Sample

// Series is an ordered collection of samples.
type Series = stats.Series

// Collector presents one connection's ground truth. Create it with New
// and pass its hooks into the connection's ConnConfig, or take it from
// the connection's waterfall recorder with Of.
type Collector struct {
	truth    waterfall.Truth
	snd, rcv stack.TraceHooks
}

// New returns a collector bound to eng whose stamps are a truth-only
// recorder's (waterfall.NewTruth).
func New(eng *sim.Engine) *Collector { return Of(waterfall.NewTruth(eng.Now)) }

// Of returns the collector of rec's ground truth; its hooks are rec's
// hook set. Call it before the connection carries data, on a recorder
// that is never gated.
func Of(rec *waterfall.Recorder) *Collector {
	c := &Collector{snd: rec.SenderHooks(), rcv: rec.ReceiverHooks()}
	rec.RecordTruth(&c.truth)
	return c
}

// SenderHooks returns the trace hooks for the sending socket.
func (c *Collector) SenderHooks() stack.TraceHooks { return c.snd }

// ReceiverHooks returns the trace hooks for the receiving socket.
func (c *Collector) ReceiverHooks() stack.TraceHooks { return c.rcv }

// SenderDelay reports the ground-truth sender-side (socket buffer) delays.
//
// The three accessors decode their series into a fresh slice on every
// call.
func (c *Collector) SenderDelay() Series { return c.truth.Sender.Collect() }

// SenderLog and ReceiverLog are the sender- and receiver-side series as
// they are packed, for a reader that decodes them a block at a time
// (core.CheckSenderLog) instead of whole.
func (c *Collector) SenderLog() *stats.Log[Sample] { return &c.truth.Sender }

// ReceiverLog: see SenderLog.
func (c *Collector) ReceiverLog() *stats.Log[Sample] { return &c.truth.Receiver }

// NetworkDelay reports the ground-truth one-way network delays.
func (c *Collector) NetworkDelay() Series { return c.truth.Network.Collect() }

// ReceiverDelay reports the ground-truth receiver-side delays.
func (c *Collector) ReceiverDelay() Series { return c.truth.Receiver.Collect() }
