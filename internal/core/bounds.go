package core

import (
	"math/bits"

	"element/internal/stats"
	"element/internal/units"
)

// This file evaluates the bounded-or-flagged contract: each estimator
// sample either stays within its self-reported error bound of ground
// truth or is explicitly marked low-confidence. It lives in core (rather
// than with the experiments) so that any layer holding a measurement log
// and a ground-truth series — the exp scenarios, the fleet supervisor's
// reconciliation, the soak harness — can audit the contract without
// import cycles.

// boundEps absorbs ground-truth interpolation fuzz when comparing a
// sample against the trace series.
const boundEps = units.Millisecond

// receiverWindow is the ground-truth lookback for receiver samples.
// Algorithm 2's samples track the *oldest* waiting bytes during a lag
// episode, while the trace series at the same instant is bimodal (hole
// bytes ≈ 0, queued bytes the full wait) — so receiver samples compare
// against the maximum true wait in a recent window, exactly like the
// receiver accuracy test in internal/core.
const receiverWindow = 150 * units.Millisecond

// BoundCheck tallies the bounded-or-flagged evaluation of one estimator
// log against ground truth.
type BoundCheck struct {
	Samples    int // graded samples seen
	Flagged    int // explicitly low-confidence (exempt from the bound)
	Checked    int // non-flagged samples with comparable ground truth
	Violations int // checked samples outside their reported bound
	// WorstExcess is the largest distance beyond the reported bound seen
	// across violations (diagnostics).
	WorstExcess units.Duration
}

// FlaggedShare reports Flagged/Samples (0 when empty).
func (b BoundCheck) FlaggedShare() float64 {
	if b.Samples == 0 {
		return 0
	}
	return float64(b.Flagged) / float64(b.Samples)
}

// Merge accumulates another tally into b (fleet-wide totals).
func (b *BoundCheck) Merge(o BoundCheck) {
	b.Samples += o.Samples
	b.Flagged += o.Flagged
	b.Checked += o.Checked
	b.Violations += o.Violations
	if o.WorstExcess > b.WorstExcess {
		b.WorstExcess = o.WorstExcess
	}
}

// band is a [lo, hi] range of ground-truth delays.
type band struct{ lo, hi units.Duration }

func (b band) merge(o band) band { return band{min(b.lo, o.lo), max(b.hi, o.hi)} }

// envBlock is the number of consecutive truth points one envelope block
// summarizes: a query scans at most two partial blocks of it, and the
// table over whole blocks is 1/envBlock the length of the series. It is
// a stats.Log's block, so a packed series decodes block by block.
const envBlock = stats.LogBlock

// blockReader is a series as the graders read it, envBlock entries at a
// time: a *stats.Log decodes block b into dst, and a slice (sliceBlocks)
// hands out a sub-slice of itself, so a slice is read where it lies and
// never encoded. BlockTime is the time of entry b·envBlock, read without
// decoding.
type blockReader[T any] interface {
	Len() int
	BlockTime(b int) units.Time
	AppendBlock(dst []T, b int) []T
}

// sliceBlocks reads a slice as a blockReader.
type sliceBlocks[T stats.Entry[T]] []T

func (s sliceBlocks[T]) Len() int                   { return len(s) }
func (s sliceBlocks[T]) BlockTime(b int) units.Time { return s[b*envBlock].Time() }
func (s sliceBlocks[T]) AppendBlock(_ []T, b int) []T {
	return s[b*envBlock : min(len(s), (b+1)*envBlock)]
}

// cacheSlots is how many decoded truth blocks an envelope keeps: a query
// reads at most two at each end of its window.
const cacheSlots = 4

// gradeScratch is where a grade decodes: the envelope's cached truth
// blocks and one block of the graded log, in one allocation.
type gradeScratch struct {
	truth [cacheSlots * envBlock]stats.Sample
	log   [envBlock]Measurement
}

// envelope answers "what range did ground truth span over (from, to]" for
// one truth series, at a cost per query that depends neither on the length
// of the series nor on how many points the window holds: each of the
// window's two ends located by one search over the block times that starts
// where the previous query's ended and decodes only the block it lands in
// (past then steps over the points stamped exactly at the end), at most
// 2·(envBlock-1) points scanned, and two lookups in a sparse min/max table
// over whole blocks (level l, entry b covers blocks b … b+2^l-1). Lookback
// windows vary per sample, so the near end of the window is not monotone
// across a log and a sliding-window structure does not fit; the table is
// built once per log, (n/32)·log₂(n/32) entries in one allocation, and
// dropped with it. Decoded blocks are kept in a few slots, least recently
// used out first, so the blocks at a window's ends are decoded once while
// the windows move through them.
type envelope[R blockReader[stats.Sample]] struct {
	truth R // sorted by At, as stats.Series.At requires
	n     int
	nb    int    // whole blocks; a trailing partial one is scanned
	table []band // level l starts at levelAt(l)
	// Where the previous query's window began and ended.
	fromHint, toHint int
	// The cached blocks: slot s holds block blockID[s]-1 (0: empty),
	// decoded into buf's s-th run of envBlock.
	buf     []stats.Sample
	blockID [cacheSlots]int
	used    [cacheSlots]uint64
	data    [cacheSlots][]stats.Sample
	clock   uint64
}

func newEnvelope[R blockReader[stats.Sample]](truth R, buf []stats.Sample) envelope[R] {
	e := envelope[R]{truth: truth, n: truth.Len(), buf: buf}
	e.nb = e.n / envBlock
	if e.nb == 0 {
		return e
	}
	levels := bits.Len(uint(e.nb))
	e.table = make([]band, e.levelAt(levels))
	for b := range e.nb {
		e.table[b] = e.scan(b*envBlock, (b+1)*envBlock)
	}
	for l := 1; l < levels; l++ {
		prev, cur, half := e.levelAt(l-1), e.levelAt(l), 1<<(l-1)
		for b := range e.nb - 1<<l + 1 {
			e.table[cur+b] = e.table[prev+b].merge(e.table[prev+b+half])
		}
	}
	return e
}

// levelAt is where table level l begins: level k holds nb-2^k+1 entries.
func (e *envelope[R]) levelAt(l int) int { return l*(e.nb+1) - 1<<l + 1 }

// block returns truth block b, decoding it unless a slot holds it.
func (e *envelope[R]) block(b int) []stats.Sample {
	e.clock++
	victim := 0
	for s, id := range e.blockID {
		if id == b+1 {
			e.used[s] = e.clock
			return e.data[s]
		}
		if e.used[s] < e.used[victim] {
			victim = s
		}
	}
	dst := e.buf[victim*envBlock : victim*envBlock : (victim+1)*envBlock]
	e.blockID[victim], e.used[victim] = b+1, e.clock
	e.data[victim] = e.truth.AppendBlock(dst, b)
	return e.data[victim]
}

// point is truth point i.
func (e *envelope[R]) point(i int) stats.Sample { return e.block(i / envBlock)[i%envBlock] }

// scan is the envelope of truth points i … j-1, i < j, block by block.
func (e *envelope[R]) scan(i, j int) band {
	d := e.point(i).Delay
	b := band{d, d}
	for i < j {
		head := i / envBlock * envBlock
		blk := e.block(i / envBlock)
		end := min(j-head, len(blk))
		for _, s := range blk[i-head : end] {
			b = b.merge(band{s.Delay, s.Delay})
		}
		i = head + end
	}
	return b
}

// after returns the index of the first truth point later than t.
// Consecutive samples of a log ask about neighbouring instants, so the
// answer is usually in the block of hint, the previous answer, which is
// then searched where it is cached. Otherwise the block is found from the
// block times alone, searching outward from hint's block in doubling
// steps, which costs the logarithm of the distance whatever the order of
// the log, and only the block before the first one later than t is
// decoded and searched.
func (e *envelope[R]) after(t units.Time, hint int) int {
	if e.n == 0 {
		return 0
	}
	blocks := (e.n + envBlock - 1) / envBlock
	h := min(hint/envBlock, blocks-1)
	if blk := e.block(h); blk[0].At <= t && t < blk[len(blk)-1].At {
		return h*envBlock + firstAfter(blk, t)
	}
	// Every block before lo starts at or before t, every block from hi on later.
	lo, hi := 0, blocks
	if e.truth.BlockTime(h) <= t {
		lo = h + 1
		for step := 1; lo+step-1 < blocks; step *= 2 {
			p := lo + step - 1
			if e.truth.BlockTime(p) > t {
				hi = p
				break
			}
			lo = p + 1
		}
	} else {
		hi = h
		for step := 1; hi-step >= 0; step *= 2 {
			p := hi - step
			if e.truth.BlockTime(p) <= t {
				lo = p + 1
				break
			}
			hi = p
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if e.truth.BlockTime(mid) > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	// Block lo-1 starts at or before t; the answer is past its first point.
	return (lo-1)*envBlock + firstAfter(e.block(lo-1), t)
}

// past is after(t, i) given i, the first truth point not earlier than
// t: it steps over the points stamped exactly t in i's block, and
// searches only when they run to the block's end.
func (e *envelope[R]) past(t units.Time, i int) int {
	if i == e.n {
		return i
	}
	head := i / envBlock * envBlock
	blk := e.block(i / envBlock)
	for k := i - head; k < len(blk); k++ {
		if blk[k].At != t {
			return head + k
		}
	}
	return e.after(t, i)
}

// firstAfter is the index in blk of its first point later than t, given
// that blk[0] is not; len(blk) if none is.
func firstAfter(blk []stats.Sample, t units.Time) int {
	i, j := 1, len(blk)
	for i < j {
		mid := int(uint(i+j) / 2)
		if blk[mid].At > t {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return i
}

// valueAt is stats.Series.At(t) — the same arithmetic, so the same bits —
// given i, the index of the first point not earlier than t.
func (e *envelope[R]) valueAt(t units.Time, i int) units.Duration {
	switch {
	case i == 0:
		return e.point(0).Delay
	case i == e.n:
		return e.point(e.n - 1).Delay
	}
	a, b := e.point(i-1), e.point(i)
	frac := float64(t-a.At) / float64(b.At-a.At)
	return a.Delay + units.Duration(frac*float64(b.Delay-a.Delay))
}

// points is the envelope of truth points i … j-1, i < j.
func (e *envelope[R]) points(i, j int) band {
	bi, bj := (i+envBlock-1)/envBlock, j/envBlock // whole blocks bi … bj-1
	if bi >= bj {
		return e.scan(i, j)
	}
	l := bits.Len(uint(bj-bi)) - 1
	at := e.levelAt(l)
	b := e.table[at+bi].merge(e.table[at+bj-1<<l])
	if head := bi * envBlock; i < head {
		b = b.merge(e.scan(i, head))
	}
	if tail := bj * envBlock; tail < j {
		b = b.merge(e.scan(tail, j))
	}
	return b
}

// band computes the [min, max] envelope of truth over (from, to],
// including values interpolated at both endpoints. ok is false when there
// is no ground truth to compare against.
func (e *envelope[R]) band(from, to units.Time) (lo, hi units.Duration, ok bool) {
	if e.n == 0 {
		return 0, 0, false
	}
	// Times are whole nanoseconds: the first point not earlier than t is
	// the first one later than t-1.
	fi, ti := e.after(from-1, e.fromHint), e.after(to-1, e.toHint)
	e.fromHint, e.toHint = fi, ti
	a, z := e.valueAt(from, fi), e.valueAt(to, ti)
	b := band{a, a}.merge(band{z, z})
	if i, j := e.past(from, fi), e.past(to, ti); i < j {
		b = b.merge(e.points(i, j))
	}
	return b.lo, b.hi, true
}

// NumConfidence is the number of confidence grades (indexable by
// Confidence).
const NumConfidence = int(ConfidenceHigh) + 1

// Coverage tallies, per confidence grade, how many estimator samples
// were checkable against ground truth and how many landed within their
// self-reported error bound — the empirical calibration the conformance
// harness compares against the per-grade coverage targets. Unlike
// BoundCheck (which exempts flagged samples), Coverage grades every
// sample, so the harness can report how often even disclaimed samples
// happen to be right.
type Coverage struct {
	// Samples counts checkable samples per grade (indexed by Confidence:
	// low, medium, high); Covered counts those within their bound.
	Samples [NumConfidence]int `json:"samples"`
	Covered [NumConfidence]int `json:"covered"`
}

// Add accumulates one checkable sample.
func (c *Coverage) Add(grade Confidence, within bool) {
	c.Samples[grade]++
	if within {
		c.Covered[grade]++
	}
}

// Merge accumulates another tally (multi-seed, multi-profile totals).
func (c *Coverage) Merge(o Coverage) {
	for g := 0; g < NumConfidence; g++ {
		c.Samples[g] += o.Samples[g]
		c.Covered[g] += o.Covered[g]
	}
}

// Fraction reports Covered/Samples for one grade (1 when the grade saw no
// samples — an empty cell meets any coverage target vacuously).
func (c Coverage) Fraction(grade Confidence) float64 {
	if c.Samples[grade] == 0 {
		return 1
	}
	return float64(c.Covered[grade]) / float64(c.Samples[grade])
}

// CheckSenderBounds evaluates the sender log: a non-flagged sample
// violates the contract when its delay is farther than ErrBound from the
// ground-truth envelope over the sample's own timestamp-quantization
// window. Ground-truth samples are stamped at transmit time while the
// estimator stamps at match time, and under stalled TCP_INFO a match
// runs late by up to the staleness folded into the sample's bound — so
// the lookback window is two polling intervals plus the sample's own
// ErrBound (tight samples keep a tight window; only samples that already
// admit lateness look further back).
func CheckSenderBounds(log []Measurement, truth stats.Series, interval units.Duration) BoundCheck {
	bc, _ := gradeLog(sliceBlocks[Measurement](log), sliceBlocks[stats.Sample](truth), interval, false)
	return bc
}

// CheckSenderLog is CheckSenderBounds over packed logs, each decoded a
// block at a time, with the per-grade Coverage of the same walk: a fleet
// monitor's stitched series or a tracker's own log (Estimates.Packed)
// against its collector's.
func CheckSenderLog(log *stats.Log[Measurement], truth *stats.Log[stats.Sample], interval units.Duration) (BoundCheck, Coverage) {
	return gradeLog(log, truth, interval, false)
}

// CheckReceiverBounds evaluates the receiver log. The contract is
// one-sided: a non-flagged sample must not report more waiting than the
// maximum true wait in the recent window plus its bound (phantom delay).
// Underestimates are inherent to Algorithm 2 — a sample can legitimately
// match bytes younger than the oldest waiting range — so they do not
// count as violations.
func CheckReceiverBounds(log []Measurement, truth stats.Series) BoundCheck {
	bc, _ := gradeLog(sliceBlocks[Measurement](log), sliceBlocks[stats.Sample](truth), 0, true)
	return bc
}

// CheckReceiverLog is CheckReceiverBounds over packed logs, with the
// per-grade Coverage of the same walk.
func CheckReceiverLog(log *stats.Log[Measurement], truth *stats.Log[stats.Sample]) (BoundCheck, Coverage) {
	return gradeLog(log, truth, 0, true)
}

// gradeLog is the one grader behind the four entry points above: a single
// walk of the log, a block at a time, against the truth envelope that
// fills both tallies. A sample's excess is its distance from the envelope
// beyond its own bound (and boundEps); the receiver looks back
// max(receiverWindow, ErrBound) and counts only overestimates. Coverage
// grades every sample with ground truth to compare against; the bound
// check exempts flagged ones.
func gradeLog[L blockReader[Measurement], R blockReader[stats.Sample]](log L, truth R, interval units.Duration, receiver bool) (bc BoundCheck, cov Coverage) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	scratch := new(gradeScratch)
	env := newEnvelope(truth, scratch.truth[:])
	for b := 0; b*envBlock < log.Len(); b++ {
		for _, m := range log.AppendBlock(scratch.log[:0], b) {
			bc.Samples++
			flagged := m.Confidence == ConfidenceLow
			if flagged {
				bc.Flagged++
			}
			lookback := 2*interval + m.ErrBound
			if receiver {
				lookback = max(receiverWindow, m.ErrBound)
			}
			lo, hi, ok := env.band(m.At.Add(-lookback), m.At)
			if !ok {
				continue
			}
			var dist units.Duration
			if m.Delay > hi {
				dist = m.Delay - hi
			} else if m.Delay < lo && !receiver {
				dist = lo - m.Delay
			}
			excess := dist - m.ErrBound - boundEps
			cov.Add(m.Confidence, excess <= 0)
			if flagged {
				continue
			}
			bc.Checked++
			if excess > 0 {
				bc.Violations++
				bc.WorstExcess = max(bc.WorstExcess, excess)
			}
		}
	}
	return bc, cov
}
