// Package stack ties the TCP machine to application code: blocking
// Write/Read socket calls running in virtual time, Linux-style send-buffer
// auto-tuning, the getsockopt(TCP_INFO) surface ELEMENT consumes, and a
// flow demultiplexer so many connections can share one emulated path.
package stack

import (
	"element/internal/netem"
	"element/internal/pkt"
	"element/internal/sim"
)

// Net multiplexes any number of connections over one duplex path,
// dispatching delivered packets to per-flow endpoints by FlowID — the
// simulator's equivalent of the host's IP layer. It is also where a
// delivered packet's life ends: the demux releases it once the flow's
// handler returns, so a handler reads what it needs during the call.
type Net struct {
	eng    *sim.Engine
	path   *netem.Path
	pool   *pkt.Pool
	atA    map[int]func(*pkt.Packet)
	atB    map[int]func(*pkt.Packet)
	nextID int
}

// NewNet wraps path with a flow demultiplexer that has a packet pool of
// its own.
func NewNet(eng *sim.Engine, path *netem.Path) *Net {
	return NewNetPool(eng, path, pkt.NewPool())
}

// NewNetPool is NewNet drawing packets from pool, for callers that run
// many Nets on one engine (a fleet shard) and want them to share one free
// list. A pool serves one engine only.
func NewNetPool(eng *sim.Engine, path *netem.Path, pool *pkt.Pool) *Net {
	n := &Net{
		eng:  eng,
		path: path,
		pool: pool,
		atA:  make(map[int]func(*pkt.Packet)),
		atB:  make(map[int]func(*pkt.Packet)),
	}
	path.AttachA(func(p *pkt.Packet) { deliver(n.atA, p) })
	path.AttachB(func(p *pkt.Packet) { deliver(n.atB, p) })
	return n
}

// deliver hands p to its flow's handler, if one is registered, and then
// releases it: the terminal consumer of every packet that crosses a link.
func deliver(handlers map[int]func(*pkt.Packet), p *pkt.Packet) {
	if h, ok := handlers[p.FlowID]; ok {
		h(p)
	}
	p.Release()
}

// Engine returns the engine the network runs on.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Path returns the underlying duplex path.
func (n *Net) Path() *netem.Path { return n.path }

// Pool returns the pool the Net's connections draw packets from; non-TCP
// users of the path (probes, UDP protocols) Get theirs from it too.
func (n *Net) Pool() *pkt.Pool { return n.pool }

// allocFlowID hands out unique flow IDs.
func (n *Net) allocFlowID() int {
	n.nextID++
	return n.nextID
}

// AllocProbeFlowID reserves a flow ID for a non-TCP user of the path (a
// probing tool or a UDP-based protocol).
func (n *Net) AllocProbeFlowID() int { return n.allocFlowID() }

// RegisterA installs a raw packet handler for a flow at the A side. The
// handler borrows the packet: the Net releases it when the handler returns.
func (n *Net) RegisterA(flowID int, h func(*pkt.Packet)) { n.atA[flowID] = h }

// RegisterB installs a raw packet handler for a flow at the B side.
func (n *Net) RegisterB(flowID int, h func(*pkt.Packet)) { n.atB[flowID] = h }
