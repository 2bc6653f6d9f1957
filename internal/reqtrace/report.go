package reqtrace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"element/internal/telemetry/stream"
)

// Quantiles is one distribution's tail summary, in seconds.
type Quantiles struct {
	P50, P99, P999 float64
}

// Report is the per-stage tail-contribution summary of a tracer:
// exact quantiles computed from the retained records and approximate
// quantiles from the mergeable sketches, cross-checkable against each
// other. Build with Tracer.Report after the run drains.
type Report struct {
	Completed   uint64
	Outstanding uint64
	Retained    int
	Decimated   bool
	StrayBytes  uint64

	// MaxResidual is the worst per-request telescoping error
	// |Σstages − e2e| / e2e over the retained records.
	MaxResidual float64

	// MeanE2E and MeanStage are arithmetic means over retained records,
	// seconds; stage shares in the table are MeanStage/MeanE2E.
	MeanE2E   float64
	MeanStage [NumStages]float64

	// Exact[0] summarizes e2e, Exact[1+s] stage s — rank statistics
	// over the retained records. Approx mirrors them from the sketches.
	Exact  [NumStages + 1]Quantiles
	Approx [NumStages + 1]Quantiles

	// CriticalShare[i] is the fraction of fan-out requests whose
	// critical path was leg i (indexed to the maximum fanout seen).
	CriticalShare []float64
}

// exactQuantile is the rank statistic matching the sketch's convention:
// the value at rank ceil(q·n) of the sorted sample (1-indexed).
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func quantilesOf(sorted []float64) Quantiles {
	return Quantiles{
		P50:  exactQuantile(sorted, 0.5),
		P99:  exactQuantile(sorted, 0.99),
		P999: exactQuantile(sorted, 0.999),
	}
}

func sketchQuantiles(sk *stream.Sketch) Quantiles {
	return Quantiles{
		P50:  sk.Quantile(0.5),
		P99:  sk.Quantile(0.99),
		P999: sk.Quantile(0.999),
	}
}

// Report builds the tail summary from the tracer's retained records and
// sketches. Deterministic: records are consumed in ID order.
func (t *Tracer) Report() *Report {
	recs := t.Records()
	rp := &Report{
		Completed:   t.Completed(),
		Outstanding: t.Outstanding(),
		Retained:    len(recs),
		Decimated:   t.Decimated(),
		StrayBytes:  t.StrayBytes(),
	}

	maxFan := 0
	for i := range recs {
		if f := int(recs[i].Fanout); f > maxFan {
			maxFan = f
		}
	}
	critical := make([]uint64, maxFan)

	// One column at a time: the buffer is reused across the 8
	// distributions, so peak extra memory is one float64 per record.
	col := make([]float64, len(recs))
	fill := func(get func(*Record) float64) []float64 {
		for i := range recs {
			col[i] = get(&recs[i])
		}
		sort.Float64s(col)
		return col
	}

	var sumE2E float64
	for i := range recs {
		r := &recs[i]
		sumE2E += r.E2E().Seconds()
		for s := 0; s < NumStages; s++ {
			rp.MeanStage[s] += r.Stage[s]
		}
		if res := r.Residual(); res > rp.MaxResidual {
			rp.MaxResidual = res
		}
		if int(r.Critical) < maxFan {
			critical[r.Critical]++
		}
	}
	if n := float64(len(recs)); n > 0 {
		rp.MeanE2E = sumE2E / n
		for s := range rp.MeanStage {
			rp.MeanStage[s] /= n
		}
		rp.CriticalShare = make([]float64, maxFan)
		for i, c := range critical {
			rp.CriticalShare[i] = float64(c) / n
		}
	}

	rp.Exact[0] = quantilesOf(fill(func(r *Record) float64 { return r.E2E().Seconds() }))
	rp.Approx[0] = sketchQuantiles(t.Sketch(-1))
	for s := 0; s < NumStages; s++ {
		s := s
		rp.Exact[1+s] = quantilesOf(fill(func(r *Record) float64 { return r.Stage[s] }))
		rp.Approx[1+s] = sketchQuantiles(t.Sketch(s))
	}
	return rp
}

// CrossCheck verifies the sketch-derived quantiles against the exact
// rank statistics: every tabulated quantile must agree within the
// sketch's guaranteed relative error (plus one-nanosecond absolute
// slack for sub-resolution values). Only meaningful when the record
// retention was not decimated — the sketches see every completion, the
// exact quantiles only the retained subset — so a decimated report
// cross-checks vacuously.
func (rp *Report) CrossCheck() error {
	if rp.Decimated {
		return nil
	}
	const absSlack = 2e-9
	for d := 0; d < NumStages+1; d++ {
		ex, ap := rp.Exact[d], rp.Approx[d]
		name := "e2e"
		if d > 0 {
			name = StageName(d - 1)
		}
		check := func(q, e, a float64) error {
			diff := a - e
			if diff < 0 {
				diff = -diff
			}
			if diff > stream.RelativeError*e+absSlack {
				return fmt.Errorf("reqtrace: %s p%g sketch %.9g vs exact %.9g exceeds relative error %.3g",
					name, q*100, a, e, stream.RelativeError)
			}
			return nil
		}
		for _, pair := range []struct {
			q    float64
			e, a float64
		}{{0.5, ex.P50, ap.P50}, {0.99, ex.P99, ap.P99}, {0.999, ex.P999, ap.P999}} {
			if err := check(pair.q, pair.e, pair.a); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTable renders the per-stage contribution table: mean, exact
// p50/p99/p999, the sketch p99 for cross-reference, and each stage's
// share of the mean end-to-end delay. Output is a pure function of the
// report, so fleet runs print byte-identical tables for any shard
// count.
func (rp *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "requests: %d completed, %d outstanding; retained %d; max residual %.6f%%\n",
		rp.Completed, rp.Outstanding, rp.Retained, rp.MaxResidual*100)
	if rp.Decimated {
		fmt.Fprintf(w, "note: record retention decimated; exact quantiles cover a subset, sketches cover all\n")
	}
	if rp.StrayBytes > 0 {
		fmt.Fprintf(w, "note: %d stray bytes matched no declared leg\n", rp.StrayBytes)
	}
	fmt.Fprintf(w, "%-11s %11s %11s %11s %11s %11s %8s\n",
		"stage", "mean ms", "p50 ms", "p99 ms", "p999 ms", "p99~ ms", "share%")
	for s := 0; s < NumStages; s++ {
		share := 0.0
		if rp.MeanE2E > 0 {
			share = 100 * rp.MeanStage[s] / rp.MeanE2E
		}
		fmt.Fprintf(w, "%-11s %11.3f %11.3f %11.3f %11.3f %11.3f %8.1f\n",
			StageName(s), rp.MeanStage[s]*1e3,
			rp.Exact[1+s].P50*1e3, rp.Exact[1+s].P99*1e3, rp.Exact[1+s].P999*1e3,
			rp.Approx[1+s].P99*1e3, share)
	}
	fmt.Fprintf(w, "%-11s %11.3f %11.3f %11.3f %11.3f %11.3f %8.1f\n",
		"e2e", rp.MeanE2E*1e3,
		rp.Exact[0].P50*1e3, rp.Exact[0].P99*1e3, rp.Exact[0].P999*1e3,
		rp.Approx[0].P99*1e3, 100.0)
	if len(rp.CriticalShare) > 1 {
		fmt.Fprintf(w, "critical child:")
		for i, f := range rp.CriticalShare {
			fmt.Fprintf(w, " leg%d %.1f%%", i, f*100)
		}
		fmt.Fprintln(w)
	}
}
