package fleet

import (
	"math/rand"

	"element/internal/apps"
	"element/internal/reqtrace"
)

// FanoutConfig switches the fleet's workload from per-connection bulk
// transfer to fan-out RPC: connections are grouped into fan-out groups
// of Degree backends, each group runs one partition-aggregate front-end
// (see internal/apps.RunFanout), and every request is traced end-to-end
// by a request-scoped span tracer joined to the per-flow waterfall.
//
// Groups are shard-atomic — all Degree connections of a group live on
// one shard, so a request's legs complete on one engine and its span
// accounting never crosses a thread. Group-to-shard assignment only
// changes which engine runs a group, not what the group does: arrivals
// draw from a group-private RNG stream and each connection's path from
// its connection-private stream, so per-request records (and therefore
// the absorbed tail report) are byte-identical for any shard count at
// the same seed.
type FanoutConfig struct {
	// Degree is the number of backend legs per request (default 4).
	// Config.Connections is rounded up to a multiple of it.
	Degree int
	// Arrivals selects the per-group arrival process (default poisson).
	Arrivals apps.ArrivalKind
	// RPS is the per-group open-loop arrival rate (default 200).
	RPS float64
	// RequestBytes is the mean per-leg response size (default 1024).
	RequestBytes int
	// SizeSpread is the partition-size heterogeneity (see
	// apps.FanoutConfig.SizeSpread). Default 0.5; negative = fixed-size
	// legs.
	SizeSpread float64
	// Burst is the bursty arrival process's burst length (default 8).
	Burst int
	// Concurrency is the closed-loop outstanding window (default 4).
	Concurrency int
	// Tracer receives every shard tracer at drain (Absorb); build the
	// tail report from it. Nil: the fleet still traces and reports
	// request counts in the Result, but retains nothing after drain.
	Tracer *reqtrace.Tracer
}

func (c *FanoutConfig) normalize() {
	if c.Degree <= 0 {
		c.Degree = 4
	}
	if c.SizeSpread == 0 {
		c.SizeSpread = 0.5
	}
	if c.SizeSpread < 0 {
		c.SizeSpread = 0
	}
}

// groups is the fan-out group count (0 when fanout mode is off).
func (c Config) groups() int {
	if c.Fanout == nil {
		return 0
	}
	return c.Connections / c.Fanout.Degree
}

// startFanout wires and starts every group's workload. Called from New
// after all monitors opened (fanout mode forces open-at-zero), so each
// group's connections and waterfall recorders exist.
func (f *Fleet) startFanout() {
	cfg := f.cfg
	deg := cfg.Fanout.Degree
	for g := 0; g < cfg.groups(); g++ {
		mons := f.monitors[g*deg : (g+1)*deg]
		sh := mons[0].sh
		fc := apps.FanoutConfig{
			Group:        g,
			Tracer:       sh.rt,
			RequestBytes: cfg.Fanout.RequestBytes,
			SizeSpread:   cfg.Fanout.SizeSpread,
			Arrivals:     cfg.Fanout.Arrivals,
			RPS:          cfg.Fanout.RPS,
			Burst:        cfg.Fanout.Burst,
			Concurrency:  cfg.Fanout.Concurrency,
			Duration:     cfg.Duration,
			// Group-private arrival stream, decorrelated from the
			// connection streams by the tag.
			Rng: rand.New(rand.NewSource(connSeed(cfg.Seed, g) + 0x66616e)), // "fan"
			// The monitors still observe the traffic their trackers
			// exist for — the fan-out writer/reader feed replaces the
			// bulk loop's OnWrite/OnRead calls.
			OnWrite: func(leg int, cum uint64) {
				if m := mons[leg]; m.state == stateRunning {
					m.snd.OnWrite(cum)
				}
			},
			OnRead: func(leg int, cum uint64, n int, partial bool) {
				if m := mons[leg]; m.state == stateRunning {
					m.rcv.OnRead(cum, n, partial)
				}
			},
		}
		for _, m := range mons {
			fc.Conns = append(fc.Conns, m.conn)
			fc.Flows = append(fc.Flows, sh.rt.Flow(m.ID, m.wf))
		}
		apps.RunFanout(sh.eng, fc)
	}
}
