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
// table over whole blocks is 1/envBlock the length of the series.
const envBlock = 32

// envelope answers "what range did ground truth span over (from, to]" for
// one truth series, at a cost per query that depends neither on the length
// of the series nor on how many points the window holds: the window's two
// ends located by a search that starts where the previous query's ended, at
// most 2·(envBlock-1) points scanned, and two lookups in a sparse min/max
// table over whole blocks (level l, entry b covers blocks b … b+2^l-1).
// Lookback windows vary per sample, so the near end of the window is not
// monotone across a log and a sliding-window structure does not fit; the
// table is built once per log, (n/32)·log₂(n/32) entries in one
// allocation, and dropped with it. The series is read where it lies,
// through Len and At: a chunked log is never consolidated to be graded.
type envelope struct {
	truth  *stats.Log[stats.Sample] // sorted by At, as stats.Series.At requires
	n      int                      // truth.Len()
	levels [][]band
	// Where the previous query's window began and ended.
	fromHint, toHint int
}

func newEnvelope(truth *stats.Log[stats.Sample]) envelope {
	e := envelope{truth: truth, n: truth.Len()}
	nb := e.n / envBlock // whole blocks; a trailing partial one is scanned
	if nb == 0 {
		return e
	}
	total := 0
	for span := 1; span <= nb; span *= 2 {
		total += nb - span + 1
	}
	flat := make([]band, total)
	e.levels = make([][]band, 0, bits.Len(uint(nb)))
	base := flat[:nb]
	for b := range base {
		base[b] = e.scan(b*envBlock, (b+1)*envBlock)
	}
	e.levels = append(e.levels, base)
	for span, off := 2, nb; span <= nb; span *= 2 {
		prev, cur := e.levels[len(e.levels)-1], flat[off:off+nb-span+1]
		for b := range cur {
			cur[b] = prev[b].merge(prev[b+span/2])
		}
		e.levels = append(e.levels, cur)
		off += len(cur)
	}
	return e
}

// at is the time of truth point i.
func (e *envelope) at(i int) units.Time { return e.truth.At(i).At }

// scan is the envelope of truth points i … j-1, i < j.
func (e *envelope) scan(i, j int) band {
	d := e.truth.At(i).Delay
	b := band{d, d}
	for k := i + 1; k < j; k++ {
		d := e.truth.At(k).Delay
		b = b.merge(band{d, d})
	}
	return b
}

// after returns the index of the first truth point later than t, searching
// outward from hint in doubling steps: consecutive samples of a log ask
// about neighbouring instants, so the answer is usually a few points from
// the previous one and the search costs the logarithm of that distance,
// whatever the order of the log.
func (e *envelope) after(t units.Time, hint int) int {
	n := e.n
	// Every point before lo is at or before t, every point from hi on is later.
	lo, hi := 0, n
	if hint < n && e.at(hint) <= t {
		lo = hint + 1
		for step := 1; lo+step-1 < n; step *= 2 {
			p := lo + step - 1
			if e.at(p) > t {
				hi = p
				break
			}
			lo = p + 1
		}
	} else {
		hi = hint
		for step := 1; hi-step >= 0; step *= 2 {
			p := hi - step
			if e.at(p) <= t {
				lo = p + 1
				break
			}
			hi = p
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if e.at(mid) > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// valueAt is stats.Series.At(t) — the same arithmetic, so the same bits —
// given i, the index of the first point not earlier than t.
func (e *envelope) valueAt(t units.Time, i int) units.Duration {
	switch {
	case i == 0:
		return e.truth.At(0).Delay
	case i == e.n:
		return e.truth.At(e.n - 1).Delay
	}
	a, b := e.truth.At(i-1), e.truth.At(i)
	frac := float64(t-a.At) / float64(b.At-a.At)
	return a.Delay + units.Duration(frac*float64(b.Delay-a.Delay))
}

// points is the envelope of truth points i … j-1, i < j.
func (e *envelope) points(i, j int) band {
	bi, bj := (i+envBlock-1)/envBlock, j/envBlock // whole blocks bi … bj-1
	if bi >= bj {
		return e.scan(i, j)
	}
	l := bits.Len(uint(bj-bi)) - 1
	b := e.levels[l][bi].merge(e.levels[l][bj-1<<l])
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
func (e *envelope) band(from, to units.Time) (lo, hi units.Duration, ok bool) {
	if e.n == 0 {
		return 0, 0, false
	}
	// Times are whole nanoseconds: the first point not earlier than t is
	// the first one later than t-1.
	fi, ti := e.after(from-1, e.fromHint), e.after(to-1, e.toHint)
	e.fromHint, e.toHint = fi, ti
	a, z := e.valueAt(from, fi), e.valueAt(to, ti)
	b := band{a, a}.merge(band{z, z})
	if i, j := e.after(from, fi), e.after(to, ti); i < j {
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
	l, tr := stats.LogOf(log), stats.LogOf(truth)
	return CheckSenderLog(&l, &tr, interval)
}

// CheckSenderLog is CheckSenderBounds over logs read where they lie: a
// fleet monitor's stitched series against its collector's, neither
// consolidated.
func CheckSenderLog(log *stats.Log[Measurement], truth *stats.Log[stats.Sample], interval units.Duration) BoundCheck {
	bc, _ := gradeLog(log, truth, interval, false)
	return bc
}

// SenderCoverage tallies per-grade bound coverage of a sender log against
// ground truth, by the same comparison as CheckSenderBounds.
func SenderCoverage(log []Measurement, truth stats.Series, interval units.Duration) Coverage {
	l, tr := stats.LogOf(log), stats.LogOf(truth)
	_, cov := gradeLog(&l, &tr, interval, false)
	return cov
}

// CheckReceiverBounds evaluates the receiver log. The contract is
// one-sided: a non-flagged sample must not report more waiting than the
// maximum true wait in the recent window plus its bound (phantom delay).
// Underestimates are inherent to Algorithm 2 — a sample can legitimately
// match bytes younger than the oldest waiting range — so they do not
// count as violations.
func CheckReceiverBounds(log []Measurement, truth stats.Series) BoundCheck {
	l, tr := stats.LogOf(log), stats.LogOf(truth)
	return CheckReceiverLog(&l, &tr)
}

// CheckReceiverLog is CheckReceiverBounds over logs read where they lie.
func CheckReceiverLog(log *stats.Log[Measurement], truth *stats.Log[stats.Sample]) BoundCheck {
	bc, _ := gradeLog(log, truth, 0, true)
	return bc
}

// ReceiverCoverage tallies per-grade coverage of a receiver log, by the
// same one-sided comparison as CheckReceiverBounds.
func ReceiverCoverage(log []Measurement, truth stats.Series) Coverage {
	l, tr := stats.LogOf(log), stats.LogOf(truth)
	_, cov := gradeLog(&l, &tr, 0, true)
	return cov
}

// gradeLog is the one grader behind the six entry points above: a single
// walk of the log against the truth envelope that fills both tallies,
// reading both logs in place. A sample's excess is its distance from the
// envelope beyond its own bound (and boundEps); the receiver looks back
// max(receiverWindow, ErrBound) and counts only overestimates. Coverage
// grades every sample with ground truth to compare against; the bound
// check exempts flagged ones.
func gradeLog(log *stats.Log[Measurement], truth *stats.Log[stats.Sample], interval units.Duration, receiver bool) (bc BoundCheck, cov Coverage) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	env := newEnvelope(truth)
	for i, n := 0, log.Len(); i < n; i++ {
		m := log.At(i)
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
	return bc, cov
}
