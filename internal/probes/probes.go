// Package probes implements the legacy TCP-based delay measurement tools
// the paper compares ELEMENT against in Table 1:
//
//   - tcpping, paping, hping3 — periodic TCP control-packet (SYN) probes
//     that measure the path round-trip time and nothing else; they cannot
//     see endhost delays because their packets never traverse the socket
//     buffers of the loaded connection.
//   - echoping — repeatedly downloads a fixed object over TCP and reports
//     the total transfer time, an end-to-end number that mixes all delay
//     components together.
//
// Each tool runs over the same emulated path as the flow under test, so
// its probes experience the same network queueing.
package probes

import (
	"element/internal/pkt"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/units"
)

// RTTProber is the common machinery of tcpping/paping/hping3: send a small
// TCP control packet, wait for the peer's immediate response, record the
// round trip. The three tools differ only in packet details that do not
// matter at this abstraction level, so each gets a named constructor for
// reporting purposes. A probe carries its id in Seq (as a SYN carries its
// initial sequence number), and the response echoes it in Ack.
type RTTProber struct {
	name     string
	eng      *sim.Engine
	net      *stack.Net
	flowID   int
	interval units.Duration
	rtts     stats.Series
	nextID   uint64
	inFlight map[uint64]units.Time
	ticker   sim.Timer
	stopped  bool
}

// newRTTProber installs the prober on the network with its own flow ID (so
// FQ-style disciplines see it as a distinct flow, as in reality).
func newRTTProber(name string, net *stack.Net, interval units.Duration) *RTTProber {
	p := &RTTProber{
		name:     name,
		eng:      net.Engine(),
		net:      net,
		flowID:   net.AllocProbeFlowID(),
		interval: interval,
		inFlight: make(map[uint64]units.Time),
	}
	// The B side behaves like a server replying to SYN with SYN-ACK (or
	// RST): an immediate, kernel-level response that never touches the
	// application layer.
	net.RegisterB(p.flowID, func(q *pkt.Packet) {
		resp := net.Pool().Get()
		resp.FlowID = p.flowID
		resp.Flags = pkt.FlagSYN | pkt.FlagACK
		resp.HeaderLen = pkt.DefaultHeaderLen
		resp.Ack = q.Seq
		net.Path().SendBtoA(resp)
	})
	net.RegisterA(p.flowID, func(q *pkt.Packet) {
		id := q.Ack
		if sentAt, ok := p.inFlight[id]; ok {
			delete(p.inFlight, id)
			p.rtts = append(p.rtts, stats.Sample{
				At: p.eng.Now(), Delay: p.eng.Now().Sub(sentAt), Bytes: 0,
			})
		}
	})
	p.schedule()
	return p
}

// NewTCPPing starts a tcpping-style prober (1 s default period).
func NewTCPPing(net *stack.Net) *RTTProber {
	return newRTTProber("tcpping", net, units.Second)
}

// NewPaping starts a paping-style prober.
func NewPaping(net *stack.Net) *RTTProber {
	return newRTTProber("paping", net, units.Second)
}

// NewHping3 starts an hping3-style prober.
func NewHping3(net *stack.Net) *RTTProber {
	return newRTTProber("hping3", net, units.Second)
}

func (p *RTTProber) schedule() {
	p.ticker = p.eng.Schedule(p.interval, func() {
		if p.stopped {
			return
		}
		p.sendProbe()
		p.schedule()
	})
}

func (p *RTTProber) sendProbe() {
	p.nextID++
	id := p.nextID
	now := p.eng.Now()
	p.inFlight[id] = now
	q := p.net.Pool().Get()
	q.FlowID = p.flowID
	q.Flags = pkt.FlagSYN
	q.HeaderLen = pkt.DefaultHeaderLen
	q.Seq = id
	q.SentAt = now
	p.net.Path().SendAtoB(q)
}

// Name reports the emulated tool's name.
func (p *RTTProber) Name() string { return p.name }

// RTTs reports the collected round-trip samples.
func (p *RTTProber) RTTs() stats.Series { return p.rtts }

// Stop halts the prober.
func (p *RTTProber) Stop() {
	p.stopped = true
	p.ticker.Stop()
}

// EchoPing emulates echoping: it repeatedly transfers a fixed-size object
// over its own TCP connection and records the wall-clock transfer time.
type EchoPing struct {
	eng        *sim.Engine
	transfers  stats.Series
	objectSize int
}

// NewEchoPing starts downloading size-byte objects back to back for the
// given number of repetitions (0 = until the run ends). It uses its own
// Cubic connection on the shared network.
func NewEchoPing(net *stack.Net, size int, reps int) *EchoPing {
	e := &EchoPing{eng: net.Engine(), objectSize: size}
	conn := stack.Dial(net, stack.ConnConfig{})
	eng := net.Engine()
	eng.Spawn("echoping-server", func(p *sim.Proc) {
		for i := 0; reps == 0 || i < reps; i++ {
			if conn.Sender.WriteFull(p, size) < size {
				return
			}
		}
	})
	eng.Spawn("echoping-client", func(p *sim.Proc) {
		for i := 0; reps == 0 || i < reps; i++ {
			start := eng.Now()
			got := 0
			for got < size {
				n := conn.Receiver.Read(p, size-got)
				if n == 0 {
					return
				}
				got += n
			}
			e.transfers = append(e.transfers, stats.Sample{
				At: eng.Now(), Delay: eng.Now().Sub(start), Bytes: size,
			})
		}
	})
	return e
}

// Transfers reports the per-object transfer times.
func (e *EchoPing) Transfers() stats.Series { return e.transfers }
