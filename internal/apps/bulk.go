// Package apps contains the evaluation applications: an iperf-like bulk
// traffic generator (the "legacy TCP application" of §5.1) and the 360°
// virtual-reality streamer of §5.2.
package apps

import (
	"element/internal/core"
	"element/internal/faults"
	"element/internal/sim"
	"element/internal/units"
)

// DefaultChunk is the write size the bulk generator uses per socket call,
// matching iperf2's default 8 KiB TCP buffer. Write granularity matters
// under Algorithm 3: the last byte of each write genuinely waits
// chunk/rate in the send buffer, so large blocks put a floor under the
// achievable latency at low rates.
const DefaultChunk = 8 << 10

// StartBulk spawns iperf's two ends: a writer that writes chunk-byte
// blocks until stop (or the stream closes) and a reader that reads as fast
// as data arrives. The app only sees the core.StreamWriter and
// StreamReader interfaces, so handing it an ELEMENT-interposed socket
// instead of a raw one is invisible to it (the LD_PRELOAD deployment).
// inj perturbs the app's calls — writer stalls, partial writes, short
// reads — and nil runs it unperturbed.
func StartBulk(eng *sim.Engine, w core.StreamWriter, r core.StreamReader, chunk int, stop units.Time, inj *faults.Injector) {
	eng.Spawn("writer", func(p *sim.Proc) {
		for p.Now() < stop {
			if d := inj.WriteStall(); d > 0 {
				p.Sleep(d)
			}
			if w.Write(p, inj.WriteSize(chunk)) == 0 {
				return
			}
		}
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		for r.Read(p, inj.ReadSize(1<<20)) > 0 {
		}
	})
}
