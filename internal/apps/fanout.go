package apps

import (
	"fmt"
	"math/rand"

	"element/internal/reqtrace"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/units"
)

// Fan-out RPC workload ("Deconstructing the Tail at Scale"): a
// partition-aggregate front-end issues requests that fan out 1→N, one
// fixed-size leg per backend connection, and a request completes only
// when its slowest leg's bytes have been read — the tail of one backend
// becomes the median of the aggregate. Arrivals are open-loop Poisson,
// open-loop bursty (same mean rate, back-to-back bursts), or
// closed-loop (fixed outstanding window) for comparison: open loops
// expose queueing collapse that closed loops mask.
//
// The generator is deliberately dumb on the data path — writers are
// byte pumps fed by a counter — because leg sizes are known a priori:
// every leg's byte range is declared to the reqtrace tracer at issue
// time, and leg completion is detected by the waterfall recorder's
// finalized ranges, not by the application.

// ArrivalKind names an arrival process.
type ArrivalKind string

// Supported arrival processes.
const (
	ArrivalPoisson ArrivalKind = "poisson"
	ArrivalBursty  ArrivalKind = "bursty"
	ArrivalClosed  ArrivalKind = "closed"
)

// ParseArrivals validates an -arrivals flag value.
func ParseArrivals(s string) (ArrivalKind, error) {
	switch ArrivalKind(s) {
	case ArrivalPoisson, ArrivalBursty, ArrivalClosed:
		return ArrivalKind(s), nil
	}
	return "", fmt.Errorf("apps: unknown arrival process %q (have poisson, bursty, closed)", s)
}

// FanoutConfig describes one fan-out group: a front-end issuing
// requests over N backend connections.
type FanoutConfig struct {
	// Group identifies this fan-out group; request IDs are
	// Group<<32 | sequence, so they are unique and shard-layout
	// independent across a fleet.
	Group int
	// Conns are the N backend connections (one leg per request each).
	Conns []*stack.Conn
	// Flows are the reqtrace flows registered for Conns, index-aligned.
	Flows []*reqtrace.Flow
	// Tracer assigns request IDs and receives completions.
	Tracer *reqtrace.Tracer
	// RequestBytes is the mean per-leg response size (default 1024).
	RequestBytes int
	// SizeSpread makes partition sizes heterogeneous, the tail-at-scale
	// driver: each leg's size draws uniformly from
	// [RequestBytes·(1−S), RequestBytes·(1+S)]. 0 = fixed-size legs
	// (backends then run in lockstep and sibwait degenerates to zero).
	SizeSpread float64
	// Arrivals selects the arrival process (default poisson).
	Arrivals ArrivalKind
	// RPS is the open-loop arrival rate, requests/second (default 200).
	RPS float64
	// Burst is the bursty process's back-to-back burst length
	// (default 8); the mean rate stays RPS.
	Burst int
	// Concurrency is the closed-loop outstanding-request window
	// (default 4).
	Concurrency int
	// Duration is the issue horizon: no request is issued at or after
	// it (in-flight requests may still complete).
	Duration units.Duration
	// Rng drives the arrival process. Every draw happens in the
	// arrival proc, in issue order, so the schedule is a pure function
	// of the source seed (nil = seeded from Group).
	Rng *rand.Rand
	// OnWrite/OnRead observe per-leg application progress (leg index,
	// cumulative bytes) — the fleet feeds its monitors' trackers here.
	// Nil disables.
	OnWrite func(leg int, cum uint64)
	OnRead  func(leg int, cum uint64, n int, partial bool)
}

func (c FanoutConfig) normalize() FanoutConfig {
	if c.RequestBytes <= 0 {
		c.RequestBytes = 1024
	}
	if c.Arrivals == "" {
		c.Arrivals = ArrivalPoisson
	}
	if c.RPS <= 0 {
		c.RPS = 200
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.SizeSpread < 0 {
		c.SizeSpread = 0
	}
	if c.SizeSpread > 0.95 {
		c.SizeSpread = 0.95
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(int64(c.Group) + 1))
	}
	return c
}

// FanoutStats reports one group's issue accounting; completion counts
// live on the tracer.
type FanoutStats struct {
	Issued int
}

// sizeQueue is a compacting FIFO of pending leg sizes for one backend
// writer; steady state is allocation-free.
type sizeQueue struct {
	buf  []int
	head int
}

func (q *sizeQueue) push(v int) { q.buf = append(q.buf, v) }

func (q *sizeQueue) pop() (int, bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	v := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v, true
}

// RunFanout spawns one fan-out group's processes on eng: per-backend
// writer and reader pairs plus the arrival process. It returns
// immediately; the workload runs as the engine advances, and parked
// processes are reaped by the engine's shutdown.
func RunFanout(eng *sim.Engine, cfg FanoutConfig) *FanoutStats {
	cfg = cfg.normalize()
	n := len(cfg.Conns)
	st := &FanoutStats{}
	if n == 0 || cfg.Tracer == nil {
		return st
	}
	cfg.Tracer.SetClock(eng.Now)

	// Per-backend write queues: the arrival proc declares leg byte
	// ranges synchronously at issue time (nextSeq) and wakes the
	// writer, which pumps each pending leg's bytes in FIFO order.
	pending := make([]sizeQueue, n)
	conds := make([]*sim.Cond, n)
	nextSeq := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		conds[i] = sim.NewCond()
		conn := cfg.Conns[i]
		eng.Spawn("fanout-writer", func(p *sim.Proc) {
			for {
				sz, ok := pending[i].pop()
				for !ok {
					conds[i].Wait(p)
					sz, ok = pending[i].pop()
				}
				if conn.Sender.WriteFull(p, sz) < sz {
					return
				}
				if cfg.OnWrite != nil {
					cfg.OnWrite(i, conn.Sender.WrittenCum())
				}
			}
		})
		eng.Spawn("fanout-reader", func(p *sim.Proc) {
			for {
				const max = 1 << 20
				nr := conn.Receiver.Read(p, max)
				if nr == 0 {
					return
				}
				if cfg.OnRead != nil {
					cfg.OnRead(i, conn.Receiver.ReadCum(), nr, nr < max)
				}
			}
		})
	}

	end := units.Time(cfg.Duration)
	inflight := 0
	doneCond := sim.NewCond()
	onDone := func() {
		inflight--
		doneCond.Signal()
	}
	issue := func() {
		id := uint64(uint32(cfg.Group))<<32 | uint64(uint32(st.Issued))
		r := cfg.Tracer.Begin(id, n, onDone)
		for i := 0; i < n; i++ {
			// Partition sizes draw in leg order from the group stream,
			// so the whole request schedule is a pure function of the
			// seed.
			sz := cfg.RequestBytes
			if s := cfg.SizeSpread; s > 0 {
				sz = int(float64(cfg.RequestBytes) * (1 - s + 2*s*cfg.Rng.Float64()))
				if sz < 1 {
					sz = 1
				}
			}
			start := nextSeq[i]
			nextSeq[i] = start + uint64(sz)
			cfg.Flows[i].Send(r, start, nextSeq[i])
			pending[i].push(sz)
			conds[i].Signal()
		}
		inflight++
		st.Issued++
	}

	eng.Spawn("fanout-arrivals", func(p *sim.Proc) {
		switch cfg.Arrivals {
		case ArrivalClosed:
			for p.Now() < end {
				for inflight >= cfg.Concurrency {
					doneCond.Wait(p)
					if p.Now() >= end {
						return
					}
				}
				issue()
			}
		case ArrivalBursty:
			// Back-to-back bursts of Burst requests; exponential gaps
			// with mean Burst/RPS keep the long-run rate at RPS.
			for p.Now() < end {
				for j := 0; j < cfg.Burst && p.Now() < end; j++ {
					issue()
				}
				gap := units.DurationFromSeconds(cfg.Rng.ExpFloat64() * float64(cfg.Burst) / cfg.RPS)
				if gap <= 0 {
					gap = 1
				}
				p.Sleep(gap)
			}
		default: // poisson
			for p.Now() < end {
				issue()
				gap := units.DurationFromSeconds(cfg.Rng.ExpFloat64() / cfg.RPS)
				if gap <= 0 {
					gap = 1
				}
				p.Sleep(gap)
			}
		}
	})
	return st
}
