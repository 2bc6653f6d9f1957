package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// runConfig is one workload process's harness settings.
type runConfig struct {
	w       workload
	seed    int64
	scale   float64
	seconds float64 // timed repetitions continue until this much wall time has passed
	minReps int
	// setupSamples is how many setup-phase timings to take.
	setupSamples int
}

// Protocol constants (README.md "Noise protocol").
const (
	defaultSeconds = 12
	minTimedReps   = 5
	maxTimedReps   = 200
	setupSamples   = 25
	// setupBatchTarget is the least wall time one setup sample spans: a
	// 60 us exp.Build timed alone mostly measures whether its cache lines
	// survived the preceding GC, so short setups are timed a batch at a
	// time and divided.
	setupBatchTarget = 4 * time.Millisecond
	maxSetupBatch    = 64
)

// rep is one timed repetition's raw measurements.
type rep struct {
	runS          float64
	mallocs       uint64
	bytes         uint64
	retainedBytes uint64
	gcCPUS        float64
	out           *outcome
}

// timedResult is one workload's untraced result: everything the
// end-to-end metrics are computed from, plus what -compare and the set
// file need (quartiles, raw values, digest).
type timedResult struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	FlowSeconds float64 `json:"flow_seconds"`
	Reps        int     `json:"reps"`
	SimDigest   string  `json:"sim_digest"`
	verdict
	E2E map[string]summary `json:"e2e"`
	// RunS and GCCPUFrac feed the harness.* diagnostics.
	RunS      summary `json:"run_s"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// oneRep runs a single repetition and measures its run phase, under a
// span per phase when rec is non-nil and with runtime/pprof sampling
// the run phase into prof when that is non-nil. Allocation counts are
// MemStats deltas around the run phase only; retained memory is
// HeapAlloc after a forced GC while the instance and its result are
// still referenced; verification follows, untimed.
func oneRep(w workload, o buildOpts, rec *spanRecorder, parent int, label string, prof io.Writer) rep {
	var r rep
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	id := rec.begin(label, parent)
	phase := rec.begin("setup", id)
	inst := w.build(o)
	rec.end(phase, 1)

	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	if prof != nil {
		// Fails only when a profile is already running, and nothing else
		// in this program starts one.
		if err := pprof.StartCPUProfile(prof); err != nil {
			panic("benchmark: " + err.Error())
		}
	}
	phase = rec.begin("run", id)
	t0 := time.Now()
	inst.run()
	r.runS = time.Since(t0).Seconds()
	rec.end(phase, 1)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	r.gcCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.retainedBytes = m2.HeapAlloc
	phase = rec.begin("verify", id)
	r.out = inst.verify()
	rec.end(phase, 1)
	rec.end(id, 1)
	return r
}

// runTimed is the untraced pass: one untimed warm-up repetition (first
// repetitions measured 30-45 % slow from page faults), then at least
// minReps timed repetitions of the same seed — identical work — until
// cfg.seconds have passed.
func runTimed(cfg runConfig) *timedResult {
	o := buildOpts{seed: cfg.seed, scale: cfg.scale, shards: shards}
	flowS := cfg.w.flowSeconds(cfg.scale)
	res := &timedResult{
		Workload: cfg.w.def.Name, Seed: cfg.seed, Scale: cfg.scale, FlowSeconds: flowS,
		verdict: verdict{Correct: true}, E2E: map[string]summary{},
	}

	warm := oneRep(cfg.w, o, nil, 0, "", nil)
	res.SimDigest = fmt.Sprintf("%016x", warm.out.digest)
	res.note("warm-up", warm.out, warm.out.digest)

	var reps []rep
	start := time.Now()
	for len(reps) < cfg.minReps || (time.Since(start).Seconds() < cfg.seconds && len(reps) < maxTimedReps) {
		r := oneRep(cfg.w, o, nil, 0, "", nil)
		res.tally(fmt.Sprintf("rep %d", len(reps)+1), r.out, warm.out.digest)
		reps = append(reps, r)
	}
	res.Reps = len(reps)

	setups := timeSetups(cfg.w, o, cfg.setupSamples)

	col := func(f func(rep) float64) summary {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return summarize(vs)
	}
	last := reps[len(reps)-1].out
	res.RunS = col(func(r rep) float64 { return r.runS })
	res.E2E["setup_s"] = summarize(setups)
	res.E2E["flow_s_per_s"] = col(func(r rep) float64 { return flowS / r.runS })
	res.E2E["allocs_per_flow_s"] = col(func(r rep) float64 { return float64(r.mallocs) / flowS })
	res.E2E["bytes_per_flow_s"] = col(func(r rep) float64 { return float64(r.bytes) / flowS })
	res.E2E["retained_mb"] = col(func(r rep) float64 { return float64(r.retainedBytes) / 1e6 })
	res.E2E["ok_frac"] = summarize([]float64{res.okFrac()})
	res.E2E["unflagged_frac"] = summarize([]float64{unflaggedFrac(last)})
	res.E2E["est_accuracy_frac"] = summarize([]float64{accuracyFrac(last)})

	var gc, run float64
	for _, r := range reps {
		gc, run = gc+r.gcCPUS, run+r.runS
	}
	res.GCCPUFrac = gc / run
	return res
}

// timeSetups measures the setup phase on its own: n samples, each the
// mean of a batch of builds sized to span setupBatchTarget. The built
// instances are discarded; nothing runs until Run, so nothing needs
// stopping.
func timeSetups(w workload, o buildOpts, n int) []float64 {
	runtime.GC()
	t0 := time.Now()
	w.build(o)
	first := time.Since(t0)
	batch := 1
	if first < setupBatchTarget {
		batch = int(setupBatchTarget/(first+1)) + 1
		if batch > maxSetupBatch {
			batch = maxSetupBatch
		}
	}
	samples := make([]float64, n)
	for i := range samples {
		// Each batch starts from a collected heap and runs with the
		// collector off, so a sample never contains a share of a GC cycle
		// that another does not.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			w.build(o)
		}
		samples[i] = time.Since(t0).Seconds() / float64(batch)
		debug.SetGCPercent(gc)
	}
	return samples
}

// verdict is the correctness tally a pass accumulates over its
// repetitions: the result line's correct/attempted/failed and the checks
// that failed, by repetition.
type verdict struct {
	Correct      bool     `json:"correct"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	FailedChecks []string `json:"failed_checks,omitempty"`
}

// note records a repetition's failed checks (and a digest that differs
// from the reference) and reports whether there were any.
func (v *verdict) note(label string, out *outcome, want uint64) bool {
	bad := false
	for _, c := range out.failedChecks {
		v.FailedChecks = append(v.FailedChecks, label+": "+c)
		bad = true
	}
	if out.digest != want {
		v.FailedChecks = append(v.FailedChecks,
			fmt.Sprintf("%s: sim_digest %016x differs from the reference %016x", label, out.digest, want))
		bad = true
	}
	if bad {
		v.Correct = false
	}
	return bad
}

// tally is note plus the operation count. A failed correctness check
// fails every operation of its repetition: a wrong answer delivered
// fast is not throughput.
func (v *verdict) tally(label string, out *outcome, want uint64) {
	bad := v.note(label, out, want)
	v.Attempted += out.attempted
	if bad {
		v.Failed += out.attempted
	} else {
		v.Failed += out.failed
	}
}

// okFrac is 1 - failed/attempted. A pass that attempted nothing has
// shown nothing: it reads 0 and is marked incorrect.
func (v *verdict) okFrac() float64 {
	if v.Attempted == 0 {
		v.Correct = false
		v.FailedChecks = append(v.FailedChecks, "no operations attempted")
		return 0
	}
	return 1 - float64(v.Failed)/float64(v.Attempted)
}

// unflaggedFrac and accuracyFrac are fractions of simulated statistics:
// they repeat exactly at a fixed seed, so one repetition speaks for all
// (the digest check proves the repetitions agree).
func unflaggedFrac(o *outcome) float64 {
	if o.graded == 0 {
		return 1
	}
	return 1 - float64(o.flagged)/float64(o.graded)
}

func accuracyFrac(o *outcome) float64 {
	if o.errN == 0 || o.truthSum == 0 {
		return 1
	}
	return 1 - o.errSum/o.truthSum
}
