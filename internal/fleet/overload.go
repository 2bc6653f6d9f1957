package fleet

import (
	"element/internal/faults"
	"element/internal/overload"
	"element/internal/units"
)

// This file is the big fleet's side of the barrier pipeline: building
// the export chain (sink ← fault injector ← backpressured queue), the
// fleet's own barrier work, metering usage against the configured
// budgets, and applying the governor's ladder transitions to individual
// monitors. Everything here runs on the coordinator goroutine between
// barriers, so governor decisions — like stream exports — are
// single-threaded and shard-count invariant: the metered usage is built
// from per-connection state and fleet-level export accounting, never
// from per-shard heap details.

// DefaultDrainGrace is the end-of-run backlog drain allowance when
// Config.DrainTimeout is zero.
const DefaultDrainGrace = 2 * units.Second

// buildPipeline wires the barrier pipeline from the normalized config:
// the fleet's hooks, the governor, and the export chain the merged
// windows go to. Called once from New, before the shards are built;
// each shard adds its stream as it is built.
func (f *Fleet) buildPipeline(nshards int) {
	cfg := f.cfg
	f.pipe = pipeline{
		duration: cfg.Duration,
		slice:    cfg.slice(),
		nshards:  nshards,
		advance:  func(i int, to units.Time) { f.shards[i].eng.RunUntil(to) },
		barrier:  f.barrier,
		gov:      newGovernor(cfg.Overload, cfg.Seed, cfg.Connections, cfg.Resume),
		usage:    f.meterUsage,
		apply: func(tr overload.Transition, now units.Time) {
			f.monitors[tr.Flow].applyTier(tr.From, tr.To, now)
		},
	}
	if cfg.Stream == nil {
		return
	}
	base := cfg.Stream.Sink
	if cfg.Faults != nil && base != nil {
		// The sink injector is fleet-level: one injector for the whole
		// export path, advanced at the same barrier that advances the
		// queue, so every delivery attempt — including queue retries —
		// sees the fault state at the current virtual time.
		f.sinkInj = faults.NewSinkInjector(cfg.Faults.Sink, connSeed(cfg.Seed, -0x5349))
		base = f.sinkInj.Wrap(base)
	}
	f.baseSink = base
	f.pipe.sink = base
	if cfg.ExportQueue != nil && base != nil {
		qc := *cfg.ExportQueue
		if qc.Seed == 0 {
			qc.Seed = connSeed(cfg.Seed, -0x5155)
		}
		f.queue = overload.NewQueue(qc, base)
		f.pipe.sink = f.queue
	}
}

// barrier runs at every barrier after the sealed windows were exported
// (enqueued): advance the export chain's virtual clocks, then mark the
// escalated flows hot for the governor's cold-first ordering.
func (f *Fleet) barrier(now units.Time) {
	f.sinkInj.Advance(now)
	if f.queue != nil {
		f.queue.Advance(now)
	}
	if gov := f.pipe.gov; gov != nil {
		for _, m := range f.monitors {
			gov.SetHot(m.ID, m.esc.Escalated())
		}
	}
}

// bytesWritten is implemented by the built-in exporters; export-rate
// metering degrades to zero for sinks that do not report it.
type bytesWritten interface{ BytesWritten() int }

// meterUsage assembles the governor's pressure inputs. Every term is a
// pure function of per-connection state or fleet-level export
// accounting, so the metered usage — and therefore the ladder walk — is
// identical at any shard count.
func (f *Fleet) meterUsage(now units.Time) overload.Usage {
	var u overload.Usage
	if bw, ok := f.baseSink.(bytesWritten); ok {
		// Export rate: bytes the base sink absorbed since the previous
		// barrier over the barrier length.
		n := bw.BytesWritten()
		u.ExportBytesPerSec = float64(n-f.exportMark) / now.Sub(f.lastTickAt).Seconds()
		f.exportMark, f.lastTickAt = n, now
	}
	for _, m := range f.monitors {
		u.RetainedSamples += m.sndLog.Len() + m.rcvLog.Len()
		if m.snd != nil {
			u.RetainedSamples += m.snd.Pending()
		}
		if m.rcv != nil {
			u.RetainedSamples += m.rcv.Pending()
		}
	}
	if f.cfg.Stream != nil {
		// Ring geometry × series count on one shard: every shard seals
		// to the same horizon, so shard 0 stands for the layout.
		u.SketchBytes = f.shards[0].stream.ApproxBytes()
	}
	if f.queue != nil {
		u.QueueFrac = f.queue.Frac()
	}
	return u
}

// applyTier applies one governor transition to this monitor. Demotions
// shed observation state and widen the flow's error bounds through the
// trackers' Shed hook — a shed flow is flagged, never silently skewed.
// Promotions out of parked fold the unobserved window into the bounds
// like a crash outage.
func (m *Monitor) applyTier(from, to overload.Tier, now units.Time) {
	m.tier = to
	if to > from {
		m.sheds++
		// The shed guard is one governor tick: the window during which
		// this flow's observation is degraded before the ladder can
		// move it again.
		guard := m.fl.cfg.slice()
		if m.snd != nil {
			m.snd.Shed(guard)
		}
		if m.rcv != nil {
			m.rcv.Shed(guard)
		}
		if m.esc.ForceDemote() {
			// Below full coverage the flow must not retain escalated raw
			// series; under sustained pressure the escalator simply
			// re-escalates after recovery.
			m.setEscalated(false)
		}
		if to == overload.TierParked {
			m.parkedAt = now
		}
		return
	}
	if from == overload.TierParked {
		d := now.Sub(m.parkedAt)
		if m.snd != nil {
			m.snd.FoldOutage(d)
		}
		if m.rcv != nil {
			m.rcv.FoldOutage(d)
		}
		// Fresh watchdog grace: a parked monitor made no poll progress.
		m.pollMark = -1
	}
}

// drainExports empties the export backlog after the last barrier: the
// run is over but the queue may still hold windows a faulted sink
// bounced. Virtual time keeps advancing in retry-sized steps — letting
// backoff and breaker cooloff elapse, and letting a recovered sink
// absorb the backlog — until the queue is empty or the drain grace
// expires; whatever remains is force-flushed once and, if the sink
// still refuses it, reported as truncated rather than hanging the run.
func (f *Fleet) drainExports(res *Result) {
	if f.queue == nil {
		return
	}
	now := units.Time(f.cfg.Duration)
	grace := f.cfg.DrainTimeout
	if grace == 0 {
		grace = DefaultDrainGrace
	} else if grace < 0 {
		grace = 0
	}
	deadline := now.Add(grace)
	for f.queue.Depth() > 0 && now < deadline {
		now = now.Add(f.cfg.Interval)
		f.sinkInj.Advance(now)
		f.queue.Advance(now)
	}
	res.ExportTruncated = f.queue.Flush(now) > 0
	res.Queue = f.queue.Stats()
}
