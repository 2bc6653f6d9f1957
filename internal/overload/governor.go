// Package overload keeps the monitor from becoming the thing data waits
// on. The paper's premise — attributing where slow data waits — only
// survives production if an always-on fleet degrades predictably under
// memory pressure, export-sink outages and monitor storms. Two pieces
// live here: a deterministic degradation governor (this file) that walks
// flows down a coverage ladder when hierarchical budgets are exceeded,
// and a backpressured export queue (queue.go) that absorbs sink outages
// with retry, backoff and a circuit breaker.
//
// The governor's contract mirrors the estimators' bounded-or-flagged
// rule: shedding coverage is allowed, shedding it silently is not. Every
// demotion the fleet applies widens the affected flow's error bounds and
// counts a Sheds anomaly (core.SenderTracker.Shed); the governor itself
// only decides WHO degrades WHEN, deterministically — same seed, same
// pressure trajectory, same decisions, at any shard count.
package overload

import "sort"

// Tier is a flow's rung on the degradation ladder, cheapest coverage
// last. The zero value is full coverage, so an ungoverned fleet needs no
// initialization.
type Tier uint8

// Ladder rungs, most to least coverage.
const (
	// TierFull runs the whole stack: tracker, minimizer, waterfall spans,
	// streaming windows, escalation, retained samples.
	TierFull Tier = iota
	// TierSketch keeps polling and streaming sketch aggregates but stops
	// retaining per-sample logs and escalated raw series.
	TierSketch
	// TierCounters keeps the tracker polling (anomaly audit, counters)
	// but contributes nothing to streaming windows.
	TierCounters
	// TierParked suspends polling entirely; only the flow's accumulated
	// state survives. Unparking folds the unobserved window into the
	// flow's error bounds like a restore outage.
	TierParked

	// NumTiers is the ladder height.
	NumTiers = 4
)

// String reports the conventional lowercase name.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierSketch:
		return "sketch"
	case TierCounters:
		return "counters"
	case TierParked:
		return "parked"
	}
	return "unknown"
}

// Budgets are the hierarchical resource caps the governor defends. A
// zero budget disables that dimension (never "budget of zero").
type Budgets struct {
	// LiveFull caps the number of flows at TierFull.
	LiveFull int
	// RetainedSamples caps fleet-wide retained measurement-log entries
	// plus unmatched FIFO records. The scale fleet keeps no series: there
	// it caps the full-granularity samples its escalated flows have
	// produced since their promotion.
	RetainedSamples int
	// SketchBytes caps the streaming layer's window+sketch footprint.
	SketchBytes int
	// ExportBytesPerSec caps the sustained export rate to the sink.
	ExportBytesPerSec float64
}

// Usage is one metering snapshot, gathered by the fleet at a barrier
// from the existing ring/FIFO/top-K structures. Every field must be
// derived shard-invariantly (per-flow state, or the canonical shard) so
// governor decisions are byte-identical at any shard count.
type Usage struct {
	// RetainedSamples is the fleet-wide retained sample/record count.
	RetainedSamples int
	// SketchBytes is the streaming layer's current footprint.
	SketchBytes int
	// ExportBytesPerSec is the recent export rate.
	ExportBytesPerSec float64
	// QueueFrac is the export queue's fill fraction in [0, 1]; it feeds
	// pressure directly (a full queue is pressure 1.0 regardless of
	// budgets) so a wedged sink degrades collection before dropping data.
	QueueFrac float64
	// LiveFull, when > 0, overrides the governor's own full-tier census
	// for the LiveFull budget. The scale fleet uses it: there the
	// full-granularity population is the escalated-tracker set, which the
	// escalation trigger moves in and out of independently of ladder
	// transitions, so the governor's tier counts undercount what is
	// actually live at full granularity.
	LiveFull int
}

// Config parameterizes the governor. Zero values select the defaults
// noted per field.
type Config struct {
	// Budgets are the resource caps (zero dimension = unlimited).
	Budgets Budgets
	// HighWater is the pressure above which flows demote (default 1.0 —
	// demote only past budget).
	HighWater float64
	// LowWater is the pressure below which flows promote (default
	// 0.75·HighWater). The (LowWater, HighWater) deadband is the
	// hysteresis that keeps the ladder from flapping.
	LowWater float64
	// HoldTicks is the minimum governor ticks between one flow's
	// consecutive transitions; each flow's effective hold is jittered to
	// HoldTicks + seed-derived[0, HoldTicks) so a cohort demoted together
	// does not promote together (default 8).
	HoldTicks int
	// Seed derives the per-flow jitter. Decisions are a pure function of
	// (Seed, flow ids, pressure trajectory).
	Seed int64
}

func (c Config) normalize() Config {
	if c.HighWater <= 0 {
		c.HighWater = 1.0
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = 0.75 * c.HighWater
	}
	if c.HoldTicks <= 0 {
		c.HoldTicks = 8
	}
	return c
}

// Transition is one governor decision: move Flow from tier From to To.
// The fleet applies it — shedding or restoring the flow's machinery and
// folding the coverage change into its error bounds.
type Transition struct {
	Flow     int
	From, To Tier
}

// Governor walks flows up and down the degradation ladder from metered
// budget pressure. It is not goroutine-safe: the fleet ticks it at the
// single-threaded barrier between shard slices, which is also what makes
// its decisions shard-count-invariant.
type Governor struct {
	cfg   Config
	tiers []Tier
	hot   []bool   // escalated flows: shed last, restored first
	jit   []uint32 // per-flow seed-derived jitter (ordering + hold)
	hold  []int    // tick index before which the flow may not transition
	// perTick caps transitions per tick at max(1, flows/16): pressure
	// relief is gradual, never a cliff.
	perTick int

	tick         int
	counts       [NumTiers]int
	sheds        int
	reclaims     int
	lastPressure float64

	// Reused across ticks so the steady-state path never allocates.
	cand   []int
	trans  []Transition
	sorter flowSorter
}

// New builds a governor over flows flows, all starting at TierFull.
func New(cfg Config, flows int) *Governor {
	return NewWithTiers(cfg, make([]Tier, flows))
}

// NewWithTiers builds a governor with explicit starting tiers — the
// snapshot/resume path, where a fleet restored mid-overload must land in
// the tier it was shed to, not silently reset to full coverage. Tiers
// outside the ladder clamp to TierParked.
func NewWithTiers(cfg Config, tiers []Tier) *Governor {
	n := len(tiers)
	g := &Governor{
		cfg:     cfg.normalize(),
		perTick: max(1, n/16),
		tiers:   make([]Tier, n),
		hot:     make([]bool, n),
		jit:     make([]uint32, n),
		hold:    make([]int, n),
		cand:    make([]int, 0, n),
		trans:   make([]Transition, 0, n),
	}
	for i, t := range tiers {
		if t >= NumTiers {
			t = TierParked
		}
		g.tiers[i] = t
		g.counts[t]++
		g.jit[i] = uint32(splitmix64(uint64(g.cfg.Seed) + uint64(i)*0x6f766c64))
	}
	g.sorter.g = g
	return g
}

// splitmix64 is the same stateless mixer the sim engine derives its
// per-connection streams from: jitter depends only on (seed, flow id).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Pressure reports the scalar budget pressure for a usage snapshot: the
// maximum utilization across all configured dimensions, plus the export
// queue's fill fraction. 1.0 means some budget is exactly spent.
func (g *Governor) Pressure(u Usage) float64 {
	p := u.QueueFrac
	if b := g.cfg.Budgets.LiveFull; b > 0 {
		live := g.counts[TierFull]
		if u.LiveFull > 0 {
			live = u.LiveFull
		}
		if v := float64(live) / float64(b); v > p {
			p = v
		}
	}
	if b := g.cfg.Budgets.RetainedSamples; b > 0 {
		if v := float64(u.RetainedSamples) / float64(b); v > p {
			p = v
		}
	}
	if b := g.cfg.Budgets.SketchBytes; b > 0 {
		if v := float64(u.SketchBytes) / float64(b); v > p {
			p = v
		}
	}
	if b := g.cfg.Budgets.ExportBytesPerSec; b > 0 {
		if v := u.ExportBytesPerSec / b; v > p {
			p = v
		}
	}
	return p
}

// Tick runs one governor round against a usage snapshot and returns the
// transitions to apply (valid until the next Tick; the slice is reused).
// Above HighWater flows demote one rung; below LowWater they promote one
// rung; inside the deadband nothing moves. At most max(1, flows/16) flows
// transition per tick, each then held for its jittered hold window —
// together with the deadband this is the flap-free guarantee the
// property tests pin.
func (g *Governor) Tick(u Usage) []Transition {
	g.tick++
	p := g.Pressure(u)
	g.lastPressure = p
	g.trans = g.trans[:0]
	switch {
	case p > g.cfg.HighWater:
		g.step(true)
	case p < g.cfg.LowWater:
		g.step(false)
	}
	return g.trans
}

// step selects and applies up to perTick one-rung transitions in the
// given direction. Demotion sheds the cheapest coverage loss first:
// non-escalated flows before escalated ("the PR 6 escalators in
// reverse" — a flow the escalator flagged as interesting is the last to
// lose coverage), least-degraded tiers first, jitter and id breaking
// ties. Promotion restores the worst loss first: escalated flows, then
// most-degraded tiers.
func (g *Governor) step(demote bool) {
	g.cand = g.cand[:0]
	for i, t := range g.tiers {
		if g.hold[i] > g.tick {
			continue
		}
		if demote {
			if t >= TierParked {
				continue
			}
		} else if t == TierFull {
			continue
		}
		g.cand = append(g.cand, i)
	}
	if len(g.cand) == 0 {
		return
	}
	g.sorter.idx = g.cand
	g.sorter.demote = demote
	sort.Sort(&g.sorter)
	n := g.perTick
	if n > len(g.cand) {
		n = len(g.cand)
	}
	for _, f := range g.cand[:n] {
		from := g.tiers[f]
		to := from + 1
		if !demote {
			to = from - 1
		}
		g.tiers[f] = to
		g.counts[from]--
		g.counts[to]++
		g.hold[f] = g.tick + g.holdFor(f)
		if demote {
			g.sheds++
		} else {
			g.reclaims++
		}
		g.trans = append(g.trans, Transition{Flow: f, From: from, To: to})
	}
}

// holdFor is flow f's jittered transition hold in ticks.
func (g *Governor) holdFor(f int) int {
	return g.cfg.HoldTicks + int(g.jit[f])%g.cfg.HoldTicks
}

// Tier reports flow f's current rung.
func (g *Governor) Tier(f int) Tier { return g.tiers[f] }

// SetHot marks flow f as escalated (the streaming escalator found it
// interesting): hot flows shed coverage last and regain it first.
func (g *Governor) SetHot(f int, hot bool) { g.hot[f] = hot }

// Flows reports the governed flow count.
func (g *Governor) Flows() int { return len(g.tiers) }

// TierCounts reports the current population of each rung.
func (g *Governor) TierCounts() [NumTiers]int { return g.counts }

// Ticks reports how many governor rounds have run.
func (g *Governor) Ticks() int { return g.tick }

// Sheds reports total demotions applied.
func (g *Governor) Sheds() int { return g.sheds }

// Reclaims reports total promotions applied.
func (g *Governor) Reclaims() int { return g.reclaims }

// LastPressure reports the pressure computed by the latest Tick.
func (g *Governor) LastPressure() float64 { return g.lastPressure }

// flowSorter orders transition candidates deterministically. It lives in
// the Governor and sorts an index slice in place so the steady-state
// tick path stays allocation-free.
type flowSorter struct {
	g      *Governor
	idx    []int
	demote bool
}

func (s *flowSorter) Len() int      { return len(s.idx) }
func (s *flowSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *flowSorter) Less(i, j int) bool {
	a, b := s.idx[i], s.idx[j]
	g := s.g
	if g.hot[a] != g.hot[b] {
		if s.demote {
			return !g.hot[a] // cold flows shed first
		}
		return g.hot[a] // hot flows restore first
	}
	if g.tiers[a] != g.tiers[b] {
		if s.demote {
			return g.tiers[a] < g.tiers[b] // least-degraded sheds first
		}
		return g.tiers[a] > g.tiers[b] // most-degraded restores first
	}
	if g.jit[a] != g.jit[b] {
		return g.jit[a] < g.jit[b]
	}
	return a < b
}
