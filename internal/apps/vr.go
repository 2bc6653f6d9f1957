package apps

import (
	"element/internal/core"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/stats"
	"element/internal/units"
)

// VR streaming constants (§5.2 of the paper).
const (
	// VRDefaultFPS is the frame rate of the 360° stream.
	VRDefaultFPS = 30
	// VRDeadline is the playback deadline: base latency plus the 100 ms
	// VR-sickness threshold the paper cites ≈ 200 ms end to end.
	VRDeadline = 200 * units.Millisecond
	// vrMovePeriod is the mean interval between head movements on the
	// control channel.
	vrMovePeriod = 2 * units.Second
)

// VRResolutions are the selectable encodings, as bytes per frame. At 30
// fps they span ≈ 10–48 Mbps, bracketing the paper's Figure 18 throughput
// band (20–50 Mbps).
var VRResolutions = []int{40 << 10, 80 << 10, 120 << 10, 160 << 10, 200 << 10}

// vrFrame is the metadata for one encoded frame travelling over the
// stream. (Payload bytes are counts only, so frame boundaries travel on
// this side channel, which stands in for the stream's framing headers.)
type vrFrame struct {
	id         int
	size       int
	resolution int
	createdAt  units.Time
	endSeq     uint64 // stream offset at which the frame completes
}

// VRStats is the output of a VR run: per-frame delivery delays and
// per-frame goodput.
type VRStats struct {
	// FrameDelays holds completion-time minus creation-time per delivered
	// frame (Figure 18's CDFs).
	FrameDelays stats.Series
	// Sent counts frames entering the TCP stream; Dropped counts frames
	// the ELEMENT controller discarded to protect latency.
	Sent, Dropped int
	// ThroughputSeries samples the delivered rate once per second
	// (Figure 18's right-hand plots).
	ThroughputSeries []float64
	// ResolutionIndex histogram of chosen resolutions.
	ResolutionHist []int
	// MotionToUpdate holds, per head movement, the time from the headset
	// sending the new viewpoint to the first frame reflecting it being
	// fully delivered — the latency that causes VR sickness. Only
	// populated when the session has a control channel.
	MotionToUpdate stats.Series
	// Movements counts viewpoint changes sent on the control channel.
	Movements int
}

// DeadlineMissFraction reports the fraction of delivered frames later than
// the deadline.
func (v *VRStats) DeadlineMissFraction(deadline units.Duration) float64 {
	if len(v.FrameDelays) == 0 {
		return 0
	}
	miss := 0
	for _, s := range v.FrameDelays {
		if s.Delay > deadline {
			miss++
		}
	}
	return float64(miss) / float64(len(v.FrameDelays))
}

// VRConfig configures a VR streaming session.
type VRConfig struct {
	FPS int
	// UseElement enables the ELEMENT-driven controller: frame dropping and
	// resolution adaptation from RetInfo, plus Algorithm 3 pacing.
	UseElement bool
	// Element is the attached sender (required when UseElement).
	Element *core.Sender
	// Conn is the underlying connection.
	Conn *stack.Conn
	// Control, when set, is a reverse-direction connection (see
	// stack.DialReverse) carrying the headset's viewpoint updates back to
	// the server, as in the paper's Figure 17. The headset moves its head
	// vrMovePeriod intervals; each movement makes the server encode a
	// full panoramic refresh (a larger frame) for the new viewpoint.
	Control *stack.Conn
	// Duration of the streaming session.
	Duration units.Duration
}

// RunVR wires the server (encoder) and headset (decoder) processes onto
// eng and returns the stats, which fill in as the simulation runs.
//
// Server behaviour without ELEMENT: classic throughput-adaptive streaming —
// pick the largest resolution the recent goodput sustains and write every
// frame, letting the socket buffer absorb bursts (which is precisely what
// blows up the latency). With ELEMENT: consult RetInfo before each frame,
// drop the frame if the send-buffer delay exceeds the threshold, step the
// resolution down when delay builds and up only when the buffer is clean —
// the §5.2 control loop.
func RunVR(eng *sim.Engine, cfg VRConfig) *VRStats {
	if cfg.FPS == 0 {
		cfg.FPS = VRDefaultFPS
	}
	st := &VRStats{ResolutionHist: make([]int, len(VRResolutions))}
	framePeriod := units.Duration(int64(units.Second) / int64(cfg.FPS))

	// In-flight frame metadata, in stream order.
	var pending []vrFrame

	// Viewpoint state shared between the control-channel processes and the
	// encoder (single-threaded in virtual time, so plain variables).
	type motion struct{ sentAt units.Time }
	var (
		pendingMotions []motion // sent by the headset, not yet at the server
		refreshNeeded  bool     // server saw a new viewpoint
		refreshMotion  motion   // the movement the next refresh answers
		trackedFrames  = map[int]motion{}
	)
	if cfg.Control != nil {
		// Headset: move the head at random-ish intervals and send a small
		// viewpoint message (x, y coordinates + angular speed).
		eng.Spawn("vr-head-tracker", func(p *sim.Proc) {
			rng := eng.Rand()
			for p.Now() < units.Time(cfg.Duration) {
				jitter := units.Duration(rng.Int63n(int64(vrMovePeriod)))
				p.Sleep(vrMovePeriod/2 + jitter)
				m := motion{sentAt: p.Now()}
				pendingMotions = append(pendingMotions, m)
				st.Movements++
				if cfg.Control.Sender.WriteFull(p, 16) < 16 {
					return
				}
			}
		})
		// Server side of the control channel: consume viewpoint messages.
		eng.Spawn("vr-control-sink", func(p *sim.Proc) {
			for {
				n := cfg.Control.Receiver.Read(p, 1<<10)
				if n == 0 {
					return
				}
				for ; n >= 16 && len(pendingMotions) > 0; n -= 16 {
					refreshNeeded = true
					refreshMotion = pendingMotions[0]
					pendingMotions = pendingMotions[1:]
				}
			}
		})
	}

	// Headset: read the stream, complete frames as their end offsets
	// arrive, track per-second throughput.
	var deliveredBytes int
	eng.Spawn("vr-headset", func(p *sim.Proc) {
		for {
			n := cfg.Conn.Receiver.Read(p, 1<<20)
			if n == 0 {
				return
			}
			deliveredBytes += n
			cum := cfg.Conn.Receiver.ReadCum()
			now := p.Now()
			for len(pending) > 0 && pending[0].endSeq <= cum {
				f := pending[0]
				pending = pending[1:]
				st.FrameDelays = append(st.FrameDelays, stats.Sample{
					At: now, Delay: now.Sub(f.createdAt), Bytes: f.size,
				})
				if m, ok := trackedFrames[f.id]; ok {
					delete(trackedFrames, f.id)
					st.MotionToUpdate = append(st.MotionToUpdate, stats.Sample{
						At: now, Delay: now.Sub(m.sentAt), Bytes: 1,
					})
				}
			}
		}
	})

	// Per-second throughput sampler.
	last := 0
	var sampleTput func()
	sampleTput = func() {
		st.ThroughputSeries = append(st.ThroughputSeries, float64(deliveredBytes-last)*8)
		last = deliveredBytes
		if eng.Now() < units.Time(cfg.Duration) {
			eng.Schedule(units.Second, sampleTput)
		}
	}
	eng.Schedule(units.Second, sampleTput)

	// Server: one frame per tick.
	eng.Spawn("vr-server", func(p *sim.Proc) {
		resIdx := len(VRResolutions) / 2
		frameID := 0
		goodput := 0.0 // EWMA bits/s from acked progress
		lastAcked := uint64(0)
		lastAt := p.Now()
		cleanTicks := 0
		downTicks := 0
		for p.Now() < units.Time(cfg.Duration) {
			tickStart := p.Now()
			frameID++

			// Refresh goodput estimate from TCP progress.
			info := cfg.Conn.Sender.GetsockoptTCPInfo()
			if now := p.Now(); now > lastAt {
				inst := float64(info.BytesAcked-lastAcked) * 8 / now.Sub(lastAt).Seconds()
				if goodput == 0 {
					goodput = inst
				} else {
					goodput = 0.8*goodput + 0.2*inst
				}
				lastAcked = info.BytesAcked
				lastAt = now
			}

			drop := false
			if cfg.UseElement {
				ri := latestRetInfo(cfg.Element)
				// Discard the frame when the send buffer is already late.
				if ri.BufDelay > core.DefaultDthr.Seconds()*2 {
					drop = true
					if resIdx > 0 {
						resIdx--
					}
					cleanTicks = 0
				} else if ri.BufDelay > core.DefaultDthr.Seconds() {
					if resIdx > 0 {
						resIdx--
					}
					cleanTicks = 0
				} else {
					cleanTicks++
					// Step up only after a second of clean buffers and
					// only if the throughput model sustains it.
					if cleanTicks > cfg.FPS && resIdx < len(VRResolutions)-1 {
						nextRate := float64(VRResolutions[resIdx+1]*8) * float64(cfg.FPS)
						if ri.Throughput == 0 || nextRate < 0.85*ri.Throughput {
							resIdx++
						}
						cleanTicks = 0
					}
				}
			} else {
				// Throughput-greedy baseline (what "grabs time-varying
				// available bandwidth"): climb the ladder while the
				// measured goodput sustains the current tier — a flow's
				// goodput can never exceed what it offers, so probing
				// upward is the only way such a player discovers
				// capacity — and step down when goodput clearly lags.
				rate := float64(VRResolutions[resIdx]*8) * float64(cfg.FPS)
				switch {
				case goodput > 0.9*rate:
					cleanTicks++
					downTicks = 0
					if cleanTicks >= cfg.FPS && resIdx < len(VRResolutions)-1 {
						resIdx++
						cleanTicks = 0
					}
				case goodput > 0 && goodput < 0.7*rate:
					cleanTicks = 0
					downTicks++
					// A full second below target before shedding: right
					// after a climb the goodput EWMA lags the new tier.
					if downTicks >= cfg.FPS && resIdx > 0 {
						resIdx--
						downTicks = 0
					}
				default:
					cleanTicks = 0
					downTicks = 0
				}
			}

			if !drop {
				size := VRResolutions[resIdx]
				trackMotion := false
				if refreshNeeded {
					// Panoramic refresh for the new viewpoint: half again
					// as much data as a delta frame at this resolution.
					size = size * 3 / 2
					trackMotion = true
					refreshNeeded = false
				}
				st.ResolutionHist[resIdx]++
				st.Sent++
				var written int
				if cfg.UseElement {
					written = cfg.Element.SendFull(p, size).Size
				} else {
					written = cfg.Conn.Sender.WriteFull(p, size)
				}
				if written < size {
					return // stream closed
				}
				pending = append(pending, vrFrame{
					id: frameID, size: size, resolution: resIdx,
					createdAt: tickStart, endSeq: cfg.Conn.Sender.WrittenCum(),
				})
				if trackMotion {
					trackedFrames[frameID] = refreshMotion
				}
			} else {
				st.Dropped++
			}

			// Wait out the remainder of the frame period.
			if elapsed := p.Now().Sub(tickStart); elapsed < framePeriod {
				p.Sleep(framePeriod - elapsed)
			}
		}
	})
	return st
}

// latestRetInfo summarizes the ELEMENT sender state without sending.
func latestRetInfo(s *core.Sender) core.RetInfo {
	if s == nil {
		return core.RetInfo{}
	}
	m := s.Estimates().Latest()
	return core.RetInfo{
		BufDelay:   m.Delay.Seconds(),
		RTT:        m.RTT.Seconds(),
		Cwnd:       int(m.Cwnd),
		Throughput: s.ThroughputEstimate(),
	}
}
