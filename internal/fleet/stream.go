package fleet

import (
	"element/internal/core"
	"element/internal/overload"
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// StreamConfig enables the bounded-memory streaming telemetry pipeline:
// per-shard windowed quantile sketches of the tracker delay estimates
// (plus per-stage waterfall sketches when a Waterfall is configured),
// merged across shards at every barrier and exported window-by-window
// through Sink. With Rules enabled, each flow runs the Dapper-style
// two-phase state machine: lightweight sketch-only observation that
// escalates to full tracker series + waterfall granularity when the p99
// rule trips, and demotes after the configured number of clean windows.
//
// In stream mode the fleet does not keep per-connection ground-truth
// collectors or full estimate series (escalated flows excepted), so a
// run's memory is O(shards × windows retained), independent of sample
// count.
type StreamConfig struct {
	// Window is the tumbling-window width in virtual time
	// (0 = stream.DefaultWidth).
	Window units.Duration
	// Watermark is the lateness allowance for samples landing in an
	// already-advanced window (0 = Window).
	Watermark units.Duration
	// Rules is the escalation policy (zero rules = no escalation; every
	// flow stays lightweight).
	Rules stream.Rules
	// Sink receives each merged fleet window as it seals, during the run
	// (nil = windows are counted and discarded).
	Sink stream.Sink
}

// streamCfg derives the per-shard stream configuration.
func (c Config) streamCfg() stream.Config {
	return shardStreamConfig(c.Stream.Window, c.Stream.Watermark, c.slice())
}

// buildStream attaches the streaming pipeline to a freshly built shard:
// the tracker delay series first, then the waterfall stage series (all
// registration happens at build time, in a fixed order, on every shard).
func (sh *shard) buildStream(cfg Config) {
	sh.stream = stream.New(cfg.streamCfg())
	sh.seSnd = sh.stream.Series("snd_delay")
	sh.seRcv = sh.stream.Series("rcv_delay")
	sh.wf.StreamTo(sh.stream)
	sh.rt.StreamTo(sh.stream)
	sh.fl.pipe.addStream(sh.stream)
}

// --- Escalation glue ------------------------------------------------------

// observeStream feeds one tracker measurement into the shard's stream
// series and, for sender samples, the flow's escalator. It reports
// whether the measurement joins the flow's stitched series: escalated
// flows retain it, restoring the non-stream granularity for exactly the
// flows that need diagnosis.
func (m *Monitor) observeStream(mm core.Measurement, sender bool) (retain bool) {
	if m.tier >= overload.TierCounters {
		// Counters-only (or lower): the sample is dropped before the
		// sketches — only its existence is counted. The flow's widened
		// bounds and Sheds anomaly flag the gap.
		m.shedSamples++
		return false
	}
	se := m.sh.seRcv
	if sender {
		se = m.sh.seSnd
	}
	observe(se, mm.At, mm.Delay.Seconds(), mm.Confidence == core.ConfidenceLow)
	if m.tier >= overload.TierSketch {
		// Sketch-only: no escalation machinery, no raw-series retention.
		return false
	}
	if sender && m.esc != nil {
		if changed, esc := m.esc.Observe(mm.At, mm.Delay.Seconds()); changed {
			m.setEscalated(esc)
		}
	}
	return m.esc.Escalated()
}

// setEscalated applies a state transition the escalator decided (and
// counted): when the fleet has a waterfall, it opens or shuts the gate
// of this flow's recorder.
func (m *Monitor) setEscalated(on bool) {
	switch {
	case !m.gated:
	case on && m.connOpen():
		// Attaching mid-flow: ranges below the current write horizon
		// have already lost their sndbuf-entry stamps, so the gate only
		// admits ranges written from here on — every recorded range has
		// complete boundaries.
		m.wf.Gate(true, m.conn.Sender.WrittenCum())
	case !on:
		m.wf.Gate(false, 0)
	}
}
