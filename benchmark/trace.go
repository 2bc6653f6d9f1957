package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"element/internal/telemetry"
)

// tracedResult is one workload's traced pass: every per-layer metric in
// the catalogue, the counts read from outside, the CPU seconds behind
// the cost waterfall, and where the spans and the profile went.
// End-to-end numbers never come from here.
type tracedResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	SimDigest string  `json:"sim_digest"`
	verdict
	// Layers holds every catalogue per-layer metric by name.
	Layers map[string]float64 `json:"layers"`
	// Counts are the work counts of the counted repetition, catalogue
	// names and the telemetry registry's ("telem." prefix) alike.
	Counts map[string]float64 `json:"counts"`
	// CPUS is the sampled CPU seconds of the profiled run phases by
	// cost-waterfall row; rows the catalogue does not declare (an internal
	// package too small to have one) are listed here and sit in the
	// residual.
	CPUS        map[string]float64 `json:"cpu_s"`
	TraceFile   string             `json:"trace_file"`
	ProfileFile string             `json:"profile_file"`
}

const minTracePairs = 3

// runTraced is the traced pass. It is separate from the timed one and
// works only from outside: (a) counts — one repetition with a telemetry
// registry attached, read back with the result structs, LinkStats and
// TCP_INFO; (b) the cost waterfall — repetitions of the plain
// configuration with runtime/pprof sampling the run phase, alternating
// with unprofiled ones so their difference is the tracing overhead, each
// CPU sample charged to the internal/ package innermost on its stack;
// (c) the per-layer drivers of layers.go.
func runTraced(cfg runConfig, outDir string) (*tracedResult, error) {
	name := cfg.w.def.Name
	rec := newSpanRecorder(name)
	root := rec.begin("traced_pass", 0)
	res := &tracedResult{
		Workload: name, Seed: cfg.seed, Scale: cfg.scale, verdict: verdict{Correct: true},
		Layers: map[string]float64{}, Counts: map[string]float64{}, CPUS: map[string]float64{},
	}
	plain := buildOpts{seed: cfg.seed, scale: cfg.scale, shards: shards}

	warm := oneRep(cfg.w, plain, rec, root, "rep.warmup", nil)
	res.SimDigest = fmt.Sprintf("%016x", warm.out.digest)
	res.note("warm-up", warm.out, warm.out.digest)

	counted := plain
	counted.telem = telemetry.New()
	r := oneRep(cfg.w, counted, rec, root, "rep.counted", nil)
	// Attaching telemetry (and, on the scenario workloads, driving the
	// engine event by event) must not move the physics.
	res.tally("counted rep", r.out, warm.out.digest)
	for k, v := range r.out.counts {
		res.Counts[k] = v
	}
	for k, v := range counterTotals(counted.telem) {
		res.Counts["telem."+k] = v
	}

	pairs := minTracePairs
	if cfg.minReps < minTimedReps {
		pairs = 1 // -quick
	}
	var unprofiled, profiled []float64
	var profiles [][]byte
	var gc, run float64
	start := time.Now()
	for i := 0; i < pairs || (time.Since(start).Seconds() < cfg.seconds && i < maxTimedReps); i++ {
		// Alternate which side goes first so drift hits both equally.
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				r := oneRep(cfg.w, plain, rec, root, "rep.unprofiled", nil)
				unprofiled = append(unprofiled, r.runS)
				gc, run = gc+r.gcCPUS, run+r.runS
				res.tally(fmt.Sprintf("unprofiled rep %d", i+1), r.out, warm.out.digest)
				continue
			}
			var prof bytes.Buffer
			r := oneRep(cfg.w, plain, rec, root, "rep.profiled", &prof)
			profiled = append(profiled, r.runS)
			profiles = append(profiles, prof.Bytes())
			res.tally(fmt.Sprintf("profiled rep %d", i+1), r.out, warm.out.digest)
		}
	}
	runS := summarize(unprofiled)

	lb := &layerBench{rec: rec, root: root, quick: cfg.scale < 1}
	for k, v := range lb.runLayers() {
		res.Layers[k] = v
	}

	res.Layers["harness.run_s"] = runS.Median
	res.Layers["harness.rep_iqr_frac"] = runS.iqrFrac()
	res.Layers["harness.peak_rss_mb"] = peakRSSMB()
	res.Layers["harness.gc_cpu_frac"] = gc / run
	res.Layers["harness.trace_overhead_frac"] = median(profiled)/runS.Median - 1
	res.Layers["harness.loadavg"] = loadAvg1()

	res.countMetrics()
	wall := 0.0
	for _, s := range profiled {
		wall += s
	}
	if err := res.costWaterfall(profiles, wall); err != nil {
		return nil, err
	}

	rec.end(root, 0)
	res.TraceFile = filepath.Join(outDir, "trace-"+name+".jsonl")
	res.ProfileFile = filepath.Join(outDir, "cpu-"+name+".pprof")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := rec.writeJSONL(res.TraceFile); err != nil {
		return nil, err
	}
	// The last profiled run phase, for `go tool pprof -top`: the way from
	// a cost-waterfall row to the functions inside it.
	if err := os.WriteFile(res.ProfileFile, profiles[len(profiles)-1], 0o644); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for _, d := range layerDefs {
		if _, ok := res.Layers[d.Name]; !ok {
			return nil, fmt.Errorf("traced pass: metric %s is in the catalogue but was not measured", d.Name)
		}
	}
	return res, nil
}

// counterTotals sums the registry's counters by name across components
// and flows (aqm and aqm.rev both count enqueued_packets, every flow
// its own retransmits).
func counterTotals(t *telemetry.Telemetry) map[string]float64 {
	totals := map[string]float64{}
	for _, c := range t.Registry().Counters() {
		totals[c.Name] += c.Value()
	}
	return totals
}

// countMetrics fills the catalogue's count metrics from the counted
// repetition. A count the workload's public API does not expose (the
// fleets keep their engines, links and trackers private) reads 0, as
// does one of a layer the workload does not use.
func (res *tracedResult) countMetrics() {
	c, l := res.Counts, res.Layers
	for _, k := range []string{
		"sim.events", "netem.pkts", "netem.lost", "aqm.drops", "core.polls", "core.samples", "core.anomalies",
		"waterfall.ranges", "waterfall.residual_frac", "reqtrace.requests", "stream.export_bytes", "stream.windows",
		"stream.late", "overload.sheds", "overload.reclaims", "overload.queue_highwater", "fleet.restarts", "fleet.checkpoints",
	} {
		l[k] = c[k]
	}
	l["tcp.retrans"] = c["telem.retransmits"]
	l["tcp.rto_fires"] = c["telem.rto_fires"]
	l["sockbuf.writer_blocks"] = c["telem.writer_blocks"]
	l["netem.delivered_frac"], l["tcp.retrans_frac"] = 0, 0
	if c["netem.pkts"] > 0 {
		l["netem.delivered_frac"] = c["netem.delivered"] / c["netem.pkts"]
	}
	if c["tcp.segs"] > 0 {
		l["tcp.retrans_frac"] = c["telem.retransmits"] / c["tcp.segs"]
	}
}

// costWaterfall charges every CPU sample of the profiled run phases to
// a row (costRow) and reports each declared row's share of all sampled
// CPU time; cost.residual_frac closes the sum to 1. With Shards engines
// and the collector's workers the process can be on more than one core
// at once: harness.cpu_per_wall says how many.
func (res *tracedResult) costWaterfall(profiles [][]byte, wallS float64) error {
	total := 0.0
	for _, p := range profiles {
		samples, err := parseCPUProfile(p)
		if err != nil {
			return err
		}
		for _, s := range samples {
			res.CPUS[costRow(s.frames)] += float64(s.ns) / 1e9
			total += float64(s.ns) / 1e9
		}
	}
	l := res.Layers
	l["harness.cpu_per_wall"] = 0
	if wallS > 0 {
		l["harness.cpu_per_wall"] = total / wallS
	}
	declared := 0.0
	for _, row := range costRows {
		l["cost."+row+"_frac"] = 0
		if total > 0 {
			l["cost."+row+"_frac"] = res.CPUS[row] / total
		}
		declared += l["cost."+row+"_frac"]
	}
	l["cost.residual_frac"] = 1 - declared
	return nil
}

func printTraced(w io.Writer, t *tracedResult) {
	fmt.Fprintf(w, "workload %s seed %d: traced pass, run phase median %.3f s\n", t.Workload, t.Seed, t.Layers["harness.run_s"])
	fmt.Fprintf(w, "config: %s\nsim_digest %s\n", defOf(t.Workload).Config, t.SimDigest)
	layer := ""
	for _, d := range layerDefs {
		if d.Layer != layer {
			layer = d.Layer
			fmt.Fprintf(w, " %s\n", layer)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s -> %s\n", d.Name, t.Layers[d.Name], d.Unit, d.Moves)
	}
	fmt.Fprintf(w, " cost waterfall (share of the sampled CPU time of the profiled run phases, %.2f cores busy; CPU seconds in brackets)\n", t.Layers["harness.cpu_per_wall"])
	for _, row := range costRows {
		fmt.Fprintf(w, "  %-10s %7.2f %%  [%.3f s]\n", row, 100*t.Layers["cost."+row+"_frac"], t.CPUS[row])
	}
	fmt.Fprintf(w, "  %-10s %7.2f %%", rowResidual, 100*t.Layers["cost.residual_frac"])
	var rest []string
	for row := range t.CPUS {
		if _, ok := t.Layers["cost."+row+"_frac"]; !ok {
			rest = append(rest, row)
		}
	}
	sort.Strings(rest)
	for _, row := range rest {
		fmt.Fprintf(w, "  %s %.3f s", row, t.CPUS[row])
	}
	fmt.Fprintf(w, "\n spans: %s\n profile of the last profiled run phase: %s\n", t.TraceFile, t.ProfileFile)
}
