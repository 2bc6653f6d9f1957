// Package apps contains the evaluation applications: an iperf-like bulk
// traffic generator (the "legacy TCP application" of §5.1) and the 360°
// virtual-reality streamer of §5.2.
package apps

import (
	"element/internal/core"
	"element/internal/sim"
)

// DefaultChunk is the write size the bulk generator uses per socket call,
// matching iperf2's default 8 KiB TCP buffer. Write granularity matters
// under Algorithm 3: the last byte of each write genuinely waits
// chunk/rate in the send buffer, so large blocks put a floor under the
// achievable latency at low rates.
const DefaultChunk = 8 << 10

// StartBulkSender spawns a process that writes continuously until the
// stream closes — iperf's behaviour. The writer only sees the
// core.StreamWriter interface, so handing it an ELEMENT-interposed socket
// instead of a raw one is invisible to it (the LD_PRELOAD deployment).
func StartBulkSender(eng *sim.Engine, w core.StreamWriter, chunk int) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	eng.Spawn("bulk-sender", func(p *sim.Proc) {
		for w.Write(p, chunk) > 0 {
		}
	})
}

// StartSink spawns a process that reads as fast as data arrives, like
// iperf's server side.
func StartSink(eng *sim.Engine, r core.StreamReader) {
	eng.Spawn("bulk-sink", func(p *sim.Proc) {
		for r.Read(p, 1<<20) > 0 {
		}
	})
}
