package waterfall

import (
	"bufio"
	"fmt"
	"io"

	"element/internal/stats"
	"element/internal/units"
)

// StageAgg is the exact byte-weighted attribution of one stage.
type StageAgg struct {
	// ByteSeconds is the residency integral: Σ over finalized ranges of
	// (stage duration × range bytes), in byte·seconds.
	ByteSeconds float64
	// Mean is the byte-weighted mean residency of a stream byte in this
	// stage.
	Mean units.Duration
	// Share is this stage's fraction of the end-to-end byte·seconds.
	Share float64
}

// Breakdown is the per-flow (or aggregate) attribution summary: where the
// flow's bytes spent their time between app write and app read.
type Breakdown struct {
	Flow     int // 0 for an aggregate over flows
	Ranges   int // finalized byte ranges (exact count, before decimation)
	Retained int // ranges kept for span export
	Bytes    uint64

	Stage [NumStages]StageAgg

	// E2EByteSeconds is the total write→read residency integral; MeanE2E
	// and MaxE2E summarize the per-byte end-to-end delay.
	E2EByteSeconds float64
	MeanE2E        units.Duration
	MaxE2E         units.Duration

	// Residual is |Σ stages − end-to-end| / end-to-end over the
	// byte·second integrals. The telescoping boundary construction makes
	// it zero up to floating-point rounding; it is reported (and asserted
	// in tests) as the attribution's internal consistency check.
	Residual float64

	QueueDrops, WireDrops int
	Resizes               int
	// LostMarkers counts drop/resize events beyond the marker retention cap
	// (their kinds are unknown; the counts above cover retained markers).
	LostMarkers int
}

func (r *Recorder) fold(b *Breakdown) {
	b.Ranges += r.agg.ranges
	b.Retained += r.ranges.Len()
	b.Bytes += r.agg.bytes
	for s := 0; s < NumStages; s++ {
		b.Stage[s].ByteSeconds += r.agg.stageByteSec[s]
	}
	b.E2EByteSeconds += r.agg.e2eByteSec
	if r.agg.maxE2E > b.MaxE2E {
		b.MaxE2E = r.agg.maxE2E
	}
	b.QueueDrops += r.queueDrops
	b.WireDrops += r.wireDrops
	b.Resizes += r.nResizes
	b.LostMarkers += r.lostDrops + r.lostResizes
}

func (b *Breakdown) finish() {
	if b.Bytes == 0 {
		return
	}
	var stageSum float64
	for s := 0; s < NumStages; s++ {
		b.Stage[s].Mean = units.DurationFromSeconds(b.Stage[s].ByteSeconds / float64(b.Bytes))
		stageSum += b.Stage[s].ByteSeconds
	}
	b.MeanE2E = units.DurationFromSeconds(b.E2EByteSeconds / float64(b.Bytes))
	if b.E2EByteSeconds > 0 {
		for s := 0; s < NumStages; s++ {
			b.Stage[s].Share = b.Stage[s].ByteSeconds / b.E2EByteSeconds
		}
		diff := stageSum - b.E2EByteSeconds
		if diff < 0 {
			diff = -diff
		}
		b.Residual = diff / b.E2EByteSeconds
	}
}

// Breakdown summarizes one flow's attribution.
func (r *Recorder) Breakdown() Breakdown {
	b := Breakdown{}
	if r == nil {
		return b
	}
	b.Flow = r.flowID
	r.fold(&b)
	b.finish()
	return b
}

// Aggregate sums the attribution over every bound flow (Flow = 0).
func (w *Waterfall) Aggregate() Breakdown {
	b := Breakdown{}
	if w == nil {
		return b
	}
	for _, r := range w.recs {
		r.fold(&b)
	}
	b.finish()
	return b
}

// Reconciliation lines the waterfall's stage grouping up against the
// paper's three delay components, from ground truth and (optionally) from
// ELEMENT's user-level estimate. Sender = sndbuf; Network = retx + queue +
// wire; Receiver = reassembly + rcvbuf.
type Reconciliation struct {
	Sender, Network, Receiver          units.Duration // waterfall stage groups
	GTSender, GTNetwork, GTReceiver    units.Duration // internal/trace ground truth
	EstSender, EstReceiver             units.Duration // ELEMENT estimates (0 when absent)
	HaveGroundTruth, HaveEstimate      bool
	SenderErr, NetworkErr, ReceiverErr units.Duration // waterfall − ground truth
}

// Reconcile compares the breakdown against ground-truth delay series
// (pass nil estimates when ELEMENT was not run). The series' byte-weighted
// means are the paper's per-component delay figures.
func (b Breakdown) Reconcile(gtSender, gtNetwork, gtReceiver, estSender, estReceiver stats.Series) Reconciliation {
	rec := Reconciliation{
		Sender:   b.Stage[StageSndbuf].Mean,
		Network:  b.Stage[StageRetx].Mean + b.Stage[StageQueue].Mean + b.Stage[StageWire].Mean,
		Receiver: b.Stage[StageReassembly].Mean + b.Stage[StageRcvbuf].Mean,
	}
	if gtSender != nil || gtNetwork != nil || gtReceiver != nil {
		rec.HaveGroundTruth = true
		rec.GTSender = gtSender.Mean()
		rec.GTNetwork = gtNetwork.Mean()
		rec.GTReceiver = gtReceiver.Mean()
		rec.SenderErr = rec.Sender - rec.GTSender
		rec.NetworkErr = rec.Network - rec.GTNetwork
		rec.ReceiverErr = rec.Receiver - rec.GTReceiver
	}
	if estSender != nil || estReceiver != nil {
		rec.HaveEstimate = true
		rec.EstSender = estSender.Mean()
		rec.EstReceiver = estReceiver.Mean()
	}
	return rec
}

// --- ASCII report ---------------------------------------------------------

const (
	asciiBarWidth = 48
	asciiMaxRows  = 20
)

// WriteASCII renders per-flow attribution tables plus a sampled waterfall
// (one bar per byte range, one glyph column per stage) — the terminal
// counterpart of the Chrome trace export.
func (w *Waterfall) WriteASCII(out io.Writer) error {
	if w == nil {
		return nil
	}
	bw := bufio.NewWriter(out)
	for i, r := range w.recs {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		r.writeASCII(bw)
	}
	if len(w.recs) > 1 {
		fmt.Fprintln(bw)
		agg := w.Aggregate()
		fmt.Fprintf(bw, "all flows combined:\n")
		writeTable(bw, agg)
	}
	if len(w.notes) > 0 {
		fmt.Fprintf(bw, "\nnotes (%d", len(w.notes))
		if w.lostNotes > 0 {
			fmt.Fprintf(bw, ", %d more not retained", w.lostNotes)
		}
		fmt.Fprintln(bw, "):")
		max := len(w.notes)
		if max > asciiMaxRows {
			max = asciiMaxRows
		}
		for _, n := range w.notes[:max] {
			fmt.Fprintf(bw, "  %-12s %s", n.At, n.Name)
			if n.Detail != "" {
				fmt.Fprintf(bw, " (%s)", n.Detail)
			}
			fmt.Fprintln(bw)
		}
		if len(w.notes) > max {
			fmt.Fprintf(bw, "  … %d more\n", len(w.notes)-max)
		}
	}
	return bw.Flush()
}

// WriteASCII renders one flow's attribution table and sampled waterfall.
func (r *Recorder) WriteASCII(out io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(out)
	r.writeASCII(bw)
	return bw.Flush()
}

func (r *Recorder) writeASCII(bw *bufio.Writer) {
	b := r.Breakdown()
	fmt.Fprintf(bw, "flow %d: %d byte ranges, %s, mean end-to-end %s (stage-sum residual %.4f%%)\n",
		b.Flow, b.Ranges, fmtBytes(b.Bytes), b.MeanE2E, b.Residual*100)
	writeTable(bw, b)
	retained := r.ranges.Len()
	if retained == 0 {
		return
	}

	// Sample up to asciiMaxRows retained ranges, evenly spaced.
	step := retained / asciiMaxRows
	if step < 1 {
		step = 1
	}
	var rows []rangeRec
	i := 0
	for rr := range r.ranges.All() {
		if i%step == 0 {
			rows = append(rows, rr)
		}
		i++
	}
	var maxE2E units.Duration
	for _, rr := range rows {
		if d := rr.b[numBounds-1].Sub(rr.b[0]); d > maxE2E {
			maxE2E = d
		}
	}
	if maxE2E <= 0 {
		return
	}
	perChar := float64(maxE2E) / asciiBarWidth
	fmt.Fprintf(bw, "  waterfall (%d of %d ranges, one glyph ≈ %s; S=sndbuf R=retx Q=queue W=wire O=reassembly B=rcvbuf):\n",
		len(rows), retained, units.Duration(perChar))
	for _, rr := range rows {
		bar := make([]byte, 0, asciiBarWidth)
		for s := 0; s < NumStages; s++ {
			d := rr.b[s+1].Sub(rr.b[s])
			n := int(float64(d)/perChar + 0.5)
			for j := 0; j < n && len(bar) < asciiBarWidth; j++ {
				bar = append(bar, Stage(s).Glyph())
			}
		}
		e2e := rr.b[numBounds-1].Sub(rr.b[0])
		fmt.Fprintf(bw, "  [%10s] %10d..%-10d %-*s %s\n",
			rr.b[0], rr.start, rr.end, asciiBarWidth, bar, e2e)
	}
}

// WriteTable renders just the attribution table (no per-range waterfall) —
// what elembench prints per experiment.
func (b Breakdown) WriteTable(out io.Writer) error {
	bw := bufio.NewWriter(out)
	writeTable(bw, b)
	return bw.Flush()
}

func writeTable(bw *bufio.Writer, b Breakdown) {
	fmt.Fprintf(bw, "  %-11s %14s %8s %12s\n", "stage", "byte-seconds", "share", "mean")
	for s := 0; s < NumStages; s++ {
		a := b.Stage[s]
		fmt.Fprintf(bw, "  %-11s %14.3f %7.2f%% %12s\n", Stage(s), a.ByteSeconds, a.Share*100, a.Mean)
	}
	fmt.Fprintf(bw, "  %-11s %14.3f %7.2f%% %12s\n", "end-to-end", b.E2EByteSeconds, 100.0, b.MeanE2E)
	if b.QueueDrops+b.WireDrops+b.Resizes > 0 {
		fmt.Fprintf(bw, "  markers: %d queue drops, %d wire drops, %d sndbuf resizes\n",
			b.QueueDrops, b.WireDrops, b.Resizes)
	}
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
