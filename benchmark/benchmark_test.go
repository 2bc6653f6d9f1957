package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"element/internal/core"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) and statistics.median of the same
	// lists, computed with Python 3.11.
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 40, 80, 160}, 15, 40, 120},
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		s := summarize(c.in)
		q1, q3 := c.q1, c.q3
		if len(c.in) == 2 {
			// Python extrapolates beyond the data for n=2; the summary
			// clamps to the ends, which is all two points can support.
			q1, q3 = 1, 2
		}
		if s.Q1 != q1 || s.Median != c.m || s.Q3 != q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v %d", c.in, s.Q1, s.Median, s.Q3, s.N, q1, c.m, q3, len(c.in))
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 || s.iqrFrac() != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if got := summarize([]float64{10, 20, 40, 80, 160}).iqrFrac(); got != 105.0/40 {
		t.Errorf("iqrFrac = %v", got)
	}
}

func TestHighestResolvedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {39, 0, false}, {40, 0.75, true}, {100, 0.9, true}, {200, 0.95, true},
		{1000, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		p, ok := highestResolvedPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestResolvedPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.9); got != 90 {
		t.Errorf("percentile(1..100, 0.9) = %v, want 90", got)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Name: "a", StartNs: 100, EndNs: 400},
		{ID: 3, Parent: 1, Name: "b", StartNs: 300, EndNs: 600},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNs: 900, EndNs: 1200},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.1", StartNs: 150, EndNs: 250}, // grandchild: not root's business
		{ID: 6, Parent: 9, Name: "orphan", StartNs: 0, EndNs: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 1000 - 500 - 100, 2: 300 - 100, 3: 300, 4: 300, 5: 100, 6: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	r := newSpanRecorder("w")
	root := r.begin("batch", 0)
	r.end(root, 10)
	r.spans[root-1].StartNs, r.spans[root-1].EndNs = 1000, 2000
	r.child("sim.event", root, 400, 4)
	if got := selfTimes(r.spans)[root]; got != 600 {
		t.Errorf("self time with a counted child = %d, want 600", got)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines in %s, want 2", len(lines), path)
	}
	var back span
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil || back != r.spans[1] {
		t.Errorf("span round trip: %+v (%v), want %+v", back, err, r.spans[1])
	}
}

func TestCostRow(t *testing.T) {
	for _, c := range []struct {
		want   string
		frames []string // leaf first
	}{
		{"tcp", []string{"runtime.memmove", "element/internal/tcp.(*Endpoint).Handle", "element/internal/netem.(*Link).deliver.func1", "element/internal/sim.(*Engine).Step", "main.(*scenarioInstance).run"}},
		{"stream", []string{"element/internal/telemetry/stream.(*Sketch).Observe", "element/internal/fleet.(*scaleShard).poll"}},
		{"telemetry", []string{"element/internal/telemetry.(*Counter).Inc"}},
		{"stats", []string{"element/internal/stats.Quantile[go.shape.float64]", "main.main"}},
		{rowGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{rowRuntime, []string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{rowResidual, []string{"runtime.mallocgc", "main.(*scenarioInstance).verify", "main.main", "runtime.main"}},
		{rowRuntime, nil},
	} {
		if got := costRow(c.frames); got != c.want {
			t.Errorf("costRow(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCostWaterfallFromProfile decodes a profile the real encoder wrote
// while the engine was the only thing running, and checks the fractions.
func TestCostWaterfallFromProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for time.Since(t0) < 400*time.Millisecond {
		scheduleAndStep(100000, 1024, true)
	}
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("%d samples from %.2f s of spinning", len(samples), wall)
	}
	res := &tracedResult{Layers: map[string]float64{}, CPUS: map[string]float64{}}
	// The same profile twice, as two profiled repetitions.
	if err := res.costWaterfall([][]byte{prof.Bytes(), prof.Bytes()}, 2*wall); err != nil {
		t.Fatal(err)
	}
	sum := res.Layers["cost.residual_frac"]
	for _, row := range costRows {
		sum += res.Layers["cost."+row+"_frac"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cost fractions sum to %v, want 1", sum)
	}
	// Well over half in a plain build; the race detector's own frames do
	// not unwind into Go and land in the residual.
	if got := res.Layers["cost.sim_frac"]; got < 0.25 {
		t.Errorf("cost.sim_frac = %v with only the engine running; rows %v", got, res.CPUS)
	}
	if got := res.Layers["harness.cpu_per_wall"]; got < 0.3 || got > 2.5 {
		t.Errorf("harness.cpu_per_wall = %v for one spinning goroutine", got)
	}

	// No samples at all: everything is residual, and the sum still holds.
	empty := &tracedResult{Layers: map[string]float64{}, CPUS: map[string]float64{}}
	if err := empty.costWaterfall(nil, 0); err != nil || empty.Layers["cost.residual_frac"] != 1 {
		t.Errorf("no profiles: residual %v, err %v", empty.Layers["cost.residual_frac"], err)
	}
	for _, bad := range [][]byte{nil, []byte("not a profile"), prof.Bytes()[:len(prof.Bytes())/2]} {
		if _, err := parseCPUProfile(bad); err == nil {
			t.Errorf("parseCPUProfile accepted %d malformed bytes", len(bad))
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json, field for field.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func catalogueAsJSON() benchmarkJSON {
	doc := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range e2eDefs {
		doc.EndToEnd = append(doc.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range layerDefs {
		doc.PerLayer = append(doc.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	return doc
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the
// catalogue: a name declared there but not printed here, or printed here
// but not declared there, fails. `go test ./benchmark -run
// CatalogueMatches -update` rewrites the file from the catalogue.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := catalogueAsJSON()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s does not match the catalogue (rerun with -update after changing catalogue.go)\n got %+v\nwant %+v", path, got, want)
	}
	seen := map[string]bool{}
	for _, n := range append(append(workloadNames(), e2eNames()...), layerNames()...) {
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, d := range e2eDefs {
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads implemented, %d in the catalogue", len(workloads), len(workloadDefs))
	}
	for i, w := range workloads {
		if w.def.Name != workloadDefs[i].Name {
			t.Errorf("workload %d is %q, the catalogue has %q there", i, w.def.Name, workloadDefs[i].Name)
		}
	}
	for _, row := range costRows {
		if !seen["cost."+row+"_frac"] {
			t.Errorf("cost row %q has no catalogue metric", row)
		}
	}
}

func e2eNames() []string {
	var names []string
	for _, d := range e2eDefs {
		names = append(names, d.Name)
	}
	return names
}

func layerNames() []string {
	var names []string
	for _, d := range layerDefs {
		names = append(names, d.Name)
	}
	return names
}

// lastLine decodes the result line: the last line of standard output,
// with exactly the contract's keys.
func lastLine(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result line keys %v, want %v", keys, want)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

func metricNames(line resultLine) []string {
	var names []string
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestQuickSmoke runs every workload at 1/20 scale through the same
// entry point the driver uses, untraced and traced, and checks that
// every declared metric — and nothing else — is emitted with its
// declared unit, that no operation fails, and that the digest is stable
// across two in-process runs.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	wantE2E, wantLayers := e2eNames(), layerNames()
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	units := map[string]string{}
	for _, d := range e2eDefs {
		units[d.Name] = d.Unit
	}
	for _, d := range layerDefs {
		units[d.Name] = d.Unit
	}
	for _, w := range workloads {
		name := w.def.Name
		for trace, want := range [][]string{wantE2E, wantLayers} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "2", "--seconds", "0", "--trace", []string{"0", "1"}[trace], "-quick", "-out", out}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", name, trace, code, stderr.String())
			}
			line := lastLine(t, stdout.String())
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if got := metricNames(line); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace %d: emitted %v\nwant %v", name, trace, got, want)
			}
			for n, m := range line.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s: %s has unit %q, want %q", name, n, m.Unit, units[n])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, n, m.Value)
				}
				if trace == 0 && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, n)
				}
			}
		}
		for _, file := range []string{"trace-" + name + ".jsonl", "cpu-" + name + ".pprof"} {
			if _, err := os.Stat(filepath.Join(out, file)); err != nil {
				t.Errorf("%s: traced pass left no %s: %v", name, file, err)
			}
		}

		cfg := runConfig{w: w, seed: 2, scale: quickScale, minReps: 1, setupSamples: 1}
		a, b := runTimed(cfg), runTimed(cfg)
		if a.SimDigest != b.SimDigest || !a.Correct || !b.Correct {
			t.Errorf("%s: digests %s / %s (correct %v / %v) across two in-process runs", name, a.SimDigest, b.SimDigest, a.Correct, b.Correct)
		}
		if a.E2E["allocs_per_flow_s"].Median <= 0 || a.FlowSeconds != w.flowSeconds(quickScale) {
			t.Errorf("%s: allocs/flow-s %v over %v flow-s", name, a.E2E["allocs_per_flow_s"].Median, a.FlowSeconds)
		}
	}
}

// TestFailedCheckFailsTheRepetition pins the accounting rule: any failed
// correctness check fails every operation of that repetition, and the
// result says incorrect.
func TestFailedCheckFailsTheRepetition(t *testing.T) {
	v := verdict{Correct: true}
	v.tally("rep 1", &outcome{attempted: 10, failed: 1, digest: 7}, 7)
	if !v.Correct || v.Attempted != 10 || v.Failed != 1 {
		t.Fatalf("a clean repetition: %+v", v)
	}
	v.tally("rep 2", &outcome{attempted: 10, digest: 8}, 7)
	if v.Correct || v.Attempted != 20 || v.Failed != 11 {
		t.Fatalf("a moved digest must fail all 10 operations of its repetition: %+v", v)
	}
	audit := &outcome{attempted: 5, digest: 7}
	audit.check(false, "queue audit: %d != %d", 3, 4)
	v.tally("rep 3", audit, 7)
	if v.Attempted != 25 || v.Failed != 16 || len(v.FailedChecks) != 2 {
		t.Fatalf("a failed audit must fail all 5 operations of its repetition: %+v", v)
	}
}

// TestGradeChunkedMatchesWhole proves the windowed grading gives the
// verdicts core's whole-series checks give.
func TestGradeChunkedMatchesWhole(t *testing.T) {
	for _, name := range []string{"bulk_clean", "lossy_mixed"} {
		w, _ := workloadByName(name)
		in := w.build(buildOpts{seed: 3, scale: 0.1, shards: shards}).(*scenarioInstance)
		in.run()
		graded := 0
		for _, fr := range in.s.Flows {
			slog, rlog := fr.Sender.Estimates().Log(), fr.Receiver.Estimates().Log()
			if got, want := gradeSender(slog, fr.GT.SenderDelay()), core.CheckSenderBounds(slog, fr.GT.SenderDelay(), 0); got != want {
				t.Errorf("%s sender: chunked %+v, whole %+v", name, got, want)
			}
			if got, want := gradeReceiver(rlog, fr.GT.ReceiverDelay()), core.CheckReceiverBounds(rlog, fr.GT.ReceiverDelay()); got != want {
				t.Errorf("%s receiver: chunked %+v, whole %+v", name, got, want)
			}
			graded += len(slog) + len(rlog)
		}
		if graded < 1000 {
			t.Errorf("%s: only %d samples graded; the comparison is too thin", name, graded)
		}
	}
	// An empty truth series grades nothing, chunked or whole.
	log := []core.Measurement{{At: 5, Delay: 1, Confidence: core.ConfidenceHigh}}
	if got, want := gradeSender(log, nil), core.CheckSenderBounds(log, nil, 0); got != want {
		t.Errorf("empty truth: chunked %+v, whole %+v", got, want)
	}
}

func TestJudge(t *testing.T) {
	tenth := sameSeedBound{Rel: 0.1}
	cases := []struct {
		name         string
		a, b         summary
		better       string
		bound        sameSeedBound
		want         string
		wantWorsePos bool
	}{
		{"same", summarize([]float64{100, 101, 99, 100, 100}), summarize([]float64{100, 100, 101, 99, 100}), "lower", tenth, verdictWithin, false},
		{"slower within bound", summarize([]float64{100, 101, 99, 100, 100}), summarize([]float64{105, 106, 104, 105, 105}), "lower", tenth, verdictWithin, true},
		{"slower beyond bound", summarize([]float64{100, 101, 99, 100, 100}), summarize([]float64{120, 121, 119, 120, 120}), "lower", tenth, verdictWorse, true},
		{"throughput drop beyond bound", summarize([]float64{100, 101, 99, 100, 100}), summarize([]float64{80, 81, 79, 80, 80}), "higher", tenth, verdictWorse, true},
		{"throughput gain", summarize([]float64{100, 101, 99, 100, 100}), summarize([]float64{150, 151, 149, 150, 150}), "higher", tenth, verdictWithin, false},
		{"noisy and overlapping", summarize([]float64{80, 100, 120, 90, 110}), summarize([]float64{95, 115, 135, 105, 125}), "lower", tenth, verdictUnresolved, true},
		{"noisy but every run better", summarize([]float64{80, 100, 120, 90, 110}), summarize([]float64{40, 50, 60, 45, 55}), "lower", tenth, verdictWithin, false},
		{"noisy and every run worse", summarize([]float64{80, 100, 120, 90, 110}), summarize([]float64{180, 200, 220, 190, 210}), "lower", tenth, verdictWorse, true},
		{"no bound at all: any drop is worse", summarize([]float64{1}), summarize([]float64{0.99}), "higher", sameSeedBound{}, verdictWorse, true},
		{"no bound at all: equal is within", summarize([]float64{1}), summarize([]float64{1}), "higher", sameSeedBound{}, verdictWithin, false},
		{"absolute bound: inside", summarize([]float64{0.992}), summarize([]float64{0.988}), "higher", sameSeedBound{Abs: 0.005}, verdictWithin, true},
		{"absolute bound: beyond", summarize([]float64{0.992}), summarize([]float64{0.986}), "higher", sameSeedBound{Abs: 0.005}, verdictWorse, true},
		// A 20 us setup that doubles, noisily: far over a quarter, far
		// under the 10 ms floor.
		{"under the floor", summarize([]float64{19e-6, 20e-6, 24e-6}), summarize([]float64{38e-6, 41e-6, 47e-6}), "lower", sameSeedBound{0.25, 0.010}, verdictWithin, true},
		{"over floor and share", summarize([]float64{0.016, 0.0161, 0.0159}), summarize([]float64{0.030, 0.0301, 0.0299}), "lower", sameSeedBound{0.25, 0.010}, verdictWorse, true},
		{"over the share, under the floor", summarize([]float64{0.016, 0.0161, 0.0159}), summarize([]float64{0.024, 0.0241, 0.0239}), "lower", sameSeedBound{0.25, 0.010}, verdictWithin, true},
	}
	for _, c := range cases {
		got, by := judge(c.a, c.b, c.better, c.bound)
		if got != c.want || (by > 0) != c.wantWorsePos {
			t.Errorf("%s: verdict %s worsening %v, want %s (worsening > 0: %v)", c.name, got, by, c.want, c.wantWorsePos)
		}
	}
}

// TestCompareSets drives -compare end to end on set files: two sets of
// one seed agree; a regression of each kind is caught at its same-seed
// bound, not the looser cross-seed one; sets that did different work are
// refused.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	// mk writes a set whose every workload reads base, with metric
	// multiplied by factor.
	mk := func(name string, seed int64, metric string, factor float64) string {
		base := map[string]float64{
			"setup_s": 0.016, "flow_s_per_s": 800, "allocs_per_flow_s": 6161, "bytes_per_flow_s": 270400,
			"retained_mb": 50.86, "ok_frac": 1, "unflagged_frac": 0.9918, "est_accuracy_frac": 0.9353,
		}
		set := setFile{Set: name, Seed: seed, Workloads: map[string]workloadResult{}}
		for _, w := range workloadDefs {
			tr := &timedResult{Workload: w.Name, Seed: seed, Scale: 1, SimDigest: "0123456789abcdef", E2E: map[string]summary{}}
			for _, d := range e2eDefs {
				v := base[d.Name]
				if d.Name == metric {
					v *= factor
				}
				if d.Unit == "frac" {
					tr.E2E[d.Name] = summarize([]float64{v}) // simulated: one value, no spread
					continue
				}
				tr.E2E[d.Name] = summarize([]float64{v, v * 1.0001, v * 0.9999})
			}
			set.Workloads[w.Name] = workloadResult{Timed: tr}
		}
		path := filepath.Join(dir, name+".json")
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk("a", 1, "", 1)
	rows := len(workloadDefs) * len(e2eDefs)
	for _, c := range []struct {
		name, metric string
		factor       float64
		code, worse  int
	}{
		{"identical", "", 1, 0, 0},
		{"setup slower by 9 ms", "setup_s", 1.56, 0, 0},
		{"setup slower by 16 ms", "setup_s", 2, 1, len(workloadDefs)},
		{"wall time 20 % down", "flow_s_per_s", 0.8, 0, 0},
		{"allocations up 0.9 %", "allocs_per_flow_s", 1.009, 0, 0},
		{"allocations up 5 %", "allocs_per_flow_s", 1.05, 1, len(workloadDefs)},
		{"bytes up 3 %", "bytes_per_flow_s", 1.03, 1, len(workloadDefs)},
		{"retained up 6 %", "retained_mb", 1.06, 1, len(workloadDefs)},
		{"one failed operation in a million", "ok_frac", 0.999999, 1, len(workloadDefs)},
		{"flagged share up 0.004", "unflagged_frac", 0.996, 0, 0},
		{"accuracy down 0.01", "est_accuracy_frac", 0.989, 1, len(workloadDefs)},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-compare", a, mk("b", 1, c.metric, c.factor)}, &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		if n := strings.Count(stdout.String(), "  "+verdictWorse+"\n"); n != c.worse {
			t.Errorf("%s: %d 'worse' rows, want %d\n%s", c.name, n, c.worse, stdout.String())
		}
		if n := strings.Count(stdout.String(), "  "+verdictWithin+"\n"); n != rows-c.worse {
			t.Errorf("%s: %d 'within' rows, want %d\n%s", c.name, n, rows-c.worse, stdout.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-compare", a, mk("seed2", 2, "", 1)}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "not the same work") {
		t.Errorf("sets of different seeds: exit %d, want 2 and a refusal\n%s", code, stderr.String())
	}
	// A set file is outside input: a short digest must not break the table.
	short := setFile{Set: "short", Seed: 1, Workloads: map[string]workloadResult{}}
	for _, w := range workloadDefs {
		short.Workloads[w.Name] = workloadResult{Timed: &timedResult{Seed: 1, Scale: 1, E2E: map[string]summary{}}}
	}
	shortPath := filepath.Join(dir, "short.json")
	if err := writeJSON(shortPath, short); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-compare", shortPath, shortPath}, &stdout, &stderr); code != 0 {
		t.Errorf("a set with empty digests and metrics: exit %d, want 0\n%s", code, stderr.String())
	}
	if code := realMain([]string{"-compare", a}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}
