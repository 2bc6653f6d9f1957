package element

// The byte-identity ledger. DIGESTS.json records, per scenario × seed, a
// count and an FNV-1a hash of every artefact a run produces; TestDigests
// recomputes all of it and names whatever moved. A change that is meant
// to leave the physics alone passes untouched; one that is meant to move
// them regenerates the file (`make digests`) and the DIGESTS.json diff is
// the review. See DESIGN §6 "Byte-identity ledger".

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/exp"
	"element/internal/fleet"
	"element/internal/hypotheses"
	"element/internal/overload"
	"element/internal/reqtrace"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

var update = flag.Bool("update", false,
	"TestDigests: rewrite DIGESTS.json, CONFORMANCE.json and hypotheses/*/FINDINGS.md from this run instead of comparing")

const digestsFile = "DIGESTS.json"

// ledger is DIGESTS.json. Artefact values read "count/hash": the number of
// records (bytes, for an export) beside the FNV-1a hash over all of them,
// so a diff shows whether a surface grew or only changed.
type ledger struct {
	Scenarios   map[string]scenarioLedger `json:"scenarios"`
	Experiments map[string]string         `json:"experiments"`
}

type scenarioLedger struct {
	// SeedDependent says whether seeds 1 and 2 gave different rows. It is
	// false for the two scenario workloads, which have no random input.
	SeedDependent bool                        `json:"seed_dependent"`
	Seeds         map[int64]map[string]string `json:"seeds"`
}

// digest accumulates one artefact.
type digest struct {
	h hash.Hash64
	n int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// u64 folds fixed-width fields; the caller counts records in n.
func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

// Write folds exported bytes and counts them.
func (d *digest) Write(p []byte) (int, error) {
	d.n += len(p)
	return d.h.Write(p)
}

func (d *digest) String() string { return fmt.Sprintf("%d/%016x", d.n, d.h.Sum64()) }

// artefact is one named surface of a run; a row is a run's artefacts in
// the order a reader would chase them — records first, exports after.
type artefact struct{ name, sum string }

type row []artefact

func (r *row) add(name string, d *digest) { *r = append(*r, artefact{name, d.String()}) }

func (r row) asMap() map[string]string {
	m := make(map[string]string, len(r))
	for _, a := range r {
		m[a.name] = a.sum
	}
	return m
}

// digestSeeds are the seeds every scenario row is computed at.
var digestSeeds = []int64{1, 2, 3}

// digestScenarios are the five benchmark/ workload shapes, rebuilt from
// public config literals at 2 s of virtual time (benchmark/ itself is a
// main package and is not imported).
var digestScenarios = []struct {
	name string
	// seedDependent is what the ledger's seed_dependent must read:
	// bulk_clean and lossy_mixed draw nothing from the seed (ROADMAP 1a).
	seedDependent bool
	run           func(t *testing.T, seed int64) row
}{
	{"bulk_clean", false, func(t *testing.T, seed int64) row {
		flows := make([]exp.FlowSpec, 4)
		for i := range flows {
			flows[i] = exp.FlowSpec{CC: cc.KindCubic, Element: true}
		}
		return scenarioRow(t, exp.ScenarioConfig{
			Seed: seed, Rate: 100 * units.Mbps, RTT: 20 * units.Millisecond,
			Disc: aqm.KindFIFO, Duration: 2 * units.Second, Flows: flows,
		})
	}},
	// The configuration internal/exp's TestObserversGolden pinned until this
	// ledger replaced it; its six constants are this row at seed 1.
	{"lossy_mixed", false, func(t *testing.T, seed int64) row {
		return scenarioRow(t, exp.ScenarioConfig{
			Seed: seed, Rate: 50 * units.Mbps, RTT: 40 * units.Millisecond,
			Disc: aqm.KindCoDel, Duration: 2 * units.Second,
			Flows: []exp.FlowSpec{
				{CC: cc.KindCubic, Element: true},
				{CC: cc.KindCubic, Minimize: true},
				{CC: cc.KindBBR, Element: true},
				{CC: cc.KindReno, Element: true},
			},
			Telemetry: telemetry.New(),
		})
	}},
	{"fanout_rpc", true, acrossShards(fanoutRow)},
	{"fleet_churn", true, acrossShards(churnRow)},
	{"scale_lite", true, acrossShards(scaleRow)},
}

// TestDigests recomputes DIGESTS.json and, for each row that differs, names
// scenario, seed and the first diverging artefact.
func TestDigests(t *testing.T) {
	var want ledger
	if !*update {
		raw, err := os.ReadFile(digestsFile)
		if err != nil {
			t.Fatalf("%v (run `make digests` to create it)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", digestsFile, err)
		}
	}
	got := ledger{Scenarios: map[string]scenarioLedger{}, Experiments: map[string]string{}}

	for _, sc := range digestScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sl := scenarioLedger{Seeds: map[int64]map[string]string{}}
			for _, seed := range digestSeeds {
				r := sc.run(t, seed)
				sl.Seeds[seed] = r.asMap()
				diffRow(t, fmt.Sprintf("%s seed %d", sc.name, seed), r, want.Scenarios[sc.name].Seeds[seed])
			}
			sl.SeedDependent = !reflect.DeepEqual(sl.Seeds[1], sl.Seeds[2])
			if sl.SeedDependent != sc.seedDependent {
				t.Errorf("%s: seeds 1 and 2 differ = %v, want %v", sc.name, sl.SeedDependent, sc.seedDependent)
			}
			got.Scenarios[sc.name] = sl
		})
	}

	t.Run("experiments", func(t *testing.T) {
		var r row
		for _, e := range exp.Registry {
			d := newDigest()
			for _, line := range deterministicLines(e.Run(1, units.Second)) {
				fmt.Fprintln(d, line)
			}
			r.add(e.ID, d)
		}
		got.Experiments = r.asMap()
		diffRow(t, "experiments seed 1, 1 s", r, want.Experiments)
	})

	t.Run("conformance", func(t *testing.T) {
		rep, err := hypotheses.Run(hypotheses.Config{Shards: runtime.GOMAXPROCS(0)})
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := hypotheses.WriteOutputs(".", rep); err != nil {
				t.Fatal(err)
			}
			return
		}
		dir := t.TempDir()
		if err := hypotheses.WriteOutputs(dir, rep); err != nil {
			t.Fatal(err)
		}
		diffTree(t, dir)
	})

	if *update && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// diffRow fails with one line per row: the first artefact, in the row's
// own order, whose count/hash is not the ledger's, then the names of the
// others that moved with it. What did not move is as telling as what did.
// Under -update there is nothing to compare with.
func diffRow(t *testing.T, where string, got row, want map[string]string) {
	t.Helper()
	if *update {
		return
	}
	var moved []artefact
	for _, a := range got {
		if want[a.name] != a.sum {
			moved = append(moved, a)
		}
	}
	have := got.asMap()
	for name := range want {
		if _, ok := have[name]; !ok {
			t.Errorf("%s: artefact %q is in %s but no longer computed", where, name, digestsFile)
		}
	}
	if len(moved) == 0 {
		return
	}
	first, rest := moved[0], ""
	for _, a := range moved[1:] {
		rest += fmt.Sprintf(" %q", a.name)
	}
	if rest != "" {
		rest = "; also moved:" + rest
	}
	ledger := want[first.name]
	if ledger == "" {
		ledger = "no entry"
	}
	t.Errorf("%s: artefact %q: count/hash %s, %s has %s%s", where, first.name, first.sum, digestsFile, ledger, rest)
}

// diffTree compares a conformance run written under dir with the committed
// CONFORMANCE.json and hypotheses/*/FINDINGS.md, byte for byte, and names
// the first line of each file that differs.
func diffTree(t *testing.T, dir string) {
	t.Helper()
	files := []string{"CONFORMANCE.json"}
	for _, h := range hypotheses.Registry {
		files = append(files, filepath.Join("hypotheses", h.Name, "FINDINGS.md"))
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(f)
		if err != nil {
			t.Errorf("conformance: %v (run `make digests`)", err)
			continue
		}
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Errorf("conformance: artefact %s: line %d differs from the committed file\n  run:       %s\n  committed: %s",
			f, i+1, lineAt(gl, i), lineAt(wl, i))
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// deterministicLines is an experiment's markdown, line by line, without
// tab_cpu's two wall-clock rows — the only lines of `elembench -md` that
// differ between two runs of one seed.
func deterministicLines(r *exp.Result) []string {
	var out []string
	for _, line := range strings.Split(r.Markdown(), "\n") {
		if r.ID == "tab_cpu" && (strings.HasPrefix(line, "| wall clock (s) |") || strings.HasPrefix(line, "| relative overhead (%) |")) {
			continue
		}
		out = append(out, line)
	}
	return out
}

// acrossShards computes a fleet row single-threaded and on three shards
// and requires the two to agree before the row is compared with the
// ledger: same seed ⇒ same bytes for any shard count.
func acrossShards(run func(t *testing.T, seed int64, shards int) row) func(*testing.T, int64) row {
	return func(t *testing.T, seed int64) row {
		t.Helper()
		one, three := run(t, seed, 1), run(t, seed, 3)
		if !reflect.DeepEqual(one, three) {
			t.Fatalf("seed %d is not shard-invariant:\n 1 shard:  %v\n 3 shards: %v", seed, one, three)
		}
		return one
	}
}

// scenarioRow runs one exp scenario with a waterfall attached (passive: it
// observes, the flows behave the same) and hashes each surface on its own:
// every finalized byte range, the three ground-truth series, both trackers'
// estimate logs, the drop markers, the path's counters, and the jsonl and
// ascii waterfall exports.
func scenarioRow(t *testing.T, cfg exp.ScenarioConfig) row {
	t.Helper()
	wf := waterfall.New()
	cfg.Waterfall = wf
	s := exp.Build(cfg)

	finals := newDigest()
	for _, fr := range s.Flows {
		id := uint64(fr.Conn.FlowID)
		fr.WF.OnFinalize(func(start, end uint64, gen int, b waterfall.Bounds) {
			finals.n++
			finals.u64(id, start, end, uint64(gen))
			for _, at := range b {
				finals.u64(uint64(at))
			}
		})
	}
	s.Run()

	truth, logs, drops, path := newDigest(), newDigest(), newDigest(), newDigest()
	for _, fr := range s.Flows {
		for _, series := range []stats.Series{fr.GT.SenderDelay(), fr.GT.NetworkDelay(), fr.GT.ReceiverDelay()} {
			truth.n += len(series)
			truth.u64(uint64(len(series)))
			for _, x := range series {
				truth.u64(uint64(x.At), uint64(x.Delay), uint64(x.Bytes))
			}
		}
		if fr.Sender != nil {
			for _, est := range []*core.Estimates{fr.Sender.Estimates(), fr.Receiver.Estimates()} {
				var l stats.Log[core.Measurement]
				for _, m := range est.Log() {
					l.Append(m)
				}
				hashLog(logs, &l)
			}
		}
		drops.n += len(fr.WF.Drops())
		for _, d := range fr.WF.Drops() {
			drops.u64(d.Seq, uint64(d.Gen), uint64(d.At), uint64(d.Kind))
		}
		path.n++
		path.u64(fr.Conn.Receiver.ReadCum())
	}
	// The queue counters hold what the waterfall cannot see yet: CoDel's
	// drops at dequeue (ROADMAP item 4).
	fmt.Fprintf(path.h, "%+v %+v %+v %+v", s.Path.Forward.Stats(), s.Path.Forward.QueueStats(),
		s.Path.Reverse.Stats(), s.Path.Reverse.QueueStats())

	var r row
	r.add("finalize records", finals)
	r.add("truth samples", truth)
	r.add("estimate logs", logs)
	r.add("drop markers", drops)
	r.add("path counters", path)
	addWaterfallExports(t, &r, wf)
	return r
}

func hashLog(d *digest, log *stats.Log[core.Measurement]) {
	d.n += log.Len()
	d.u64(uint64(log.Len()))
	for m := range log.All() {
		d.u64(uint64(m.At), uint64(m.Delay), uint64(m.Cwnd), uint64(m.Ssthresh),
			uint64(m.RTT), uint64(m.Confidence), uint64(m.ErrBound))
	}
}

func addWaterfallExports(t *testing.T, r *row, wf *waterfall.Waterfall) {
	t.Helper()
	jsonl, ascii := newDigest(), newDigest()
	if err := wf.WriteJSONL(jsonl); err != nil {
		t.Fatal(err)
	}
	if err := wf.WriteASCII(ascii); err != nil {
		t.Fatal(err)
	}
	r.add("jsonl export", jsonl)
	r.add("ascii export", ascii)
}

// addFleetWaterfall hashes the waterfall a fleet absorbed from its shards.
// Recorders arrive in shard order, and a fleet's recorders keep no ranges
// or markers, so what each one holds is its Breakdown: ranges, bytes,
// every byte·second integral, the worst end-to-end delay and the marker
// counts. Each recorder hashes on its own and the hashes fold in sorted
// order.
func addFleetWaterfall(r *row, wf *waterfall.Waterfall) {
	d := newDigest()
	var recs []uint64
	for _, rec := range wf.Flows() {
		one := newDigest()
		b := rec.Breakdown()
		one.u64(uint64(b.Ranges), b.Bytes)
		for _, st := range b.Stage {
			one.u64(math.Float64bits(st.ByteSeconds))
		}
		one.u64(math.Float64bits(b.E2EByteSeconds), uint64(b.MaxE2E),
			uint64(b.QueueDrops), uint64(b.WireDrops), uint64(b.Resizes), uint64(b.LostMarkers))
		recs = append(recs, one.h.Sum64())
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
	d.n = len(recs)
	d.u64(recs...)
	r.add("waterfall recorders", d)
}

// addFleetResult hashes what a Fleet run reduces to: the fleet-wide
// counters, the bounded-or-flagged tallies on their own (the ground-truth
// reconcile's output), each connection's counters, each connection's
// stitched estimate logs, and the marshalled snapshot.
func addFleetResult(t *testing.T, r *row, res *fleet.Result, snap *fleet.Snapshot) {
	t.Helper()
	counters, bounds, conns, logs := newDigest(), newDigest(), newDigest(), newDigest()
	// Every Result field but the run's options (pointers, and a shape that
	// changes whenever a knob is added or removed) and the per-connection
	// part, which hashes on its own below.
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Config" && name != "Conns" {
			fmt.Fprintf(counters, "%s:%+v ", name, v.Field(i))
		}
	}
	bounds.n = res.Sender.Samples + res.Receiver.Samples
	fmt.Fprintf(bounds.h, "%+v %+v", res.Sender, res.Receiver)
	for _, c := range res.Conns {
		conns.n++
		fmt.Fprintf(conns.h, "%s\n", connLine(c))
		hashLog(logs, &c.SndLog)
		hashLog(logs, &c.RcvLog)
	}
	r.add("result counters", counters)
	r.add("bound checks", bounds)
	r.add("conn results", conns)
	r.add("conn logs", logs)
	addSnapshot(t, r, snap)
}

// connLine is a connection's counters as the ledger has always printed
// them: %+v of the ConnResult with its two logs, which hash on their own,
// shown as the empty slices they were printed as before they became
// stats.Logs.
func connLine(c *fleet.ConnResult) string {
	var b strings.Builder
	v := reflect.ValueOf(*c)
	for i := 0; i < v.NumField(); i++ {
		sep := " "
		if i == 0 {
			sep = "{"
		}
		switch name := v.Type().Field(i).Name; name {
		case "SndLog", "RcvLog":
			fmt.Fprintf(&b, "%s%s:[]", sep, name)
		default:
			fmt.Fprintf(&b, "%s%s:%+v", sep, name, v.Field(i))
		}
	}
	b.WriteByte('}')
	return b.String()
}

func addSnapshot(t *testing.T, r *row, snap *fleet.Snapshot) {
	t.Helper()
	snap.Shards = 0 // the layout at capture, informational
	raw, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.Write(raw)
	r.add("snapshot", d)
}

// fanoutRow is the fanout_rpc shape: 8 fan-out groups of 8 backends over
// CoDel links at 75 % mean utilisation, every request a span tree.
func fanoutRow(t *testing.T, seed int64, shards int) row {
	t.Helper()
	const degree, rps, legBytes = 8, 500, 256
	tr, wf := reqtrace.New(), waterfall.New()
	f := fleet.New(fleet.Config{
		Seed: seed, Connections: 8 * degree, Duration: 2 * units.Second,
		Rate: units.Rate(float64(rps*legBytes*8) / 0.75), RTT: 20 * units.Millisecond,
		Disc: aqm.KindCoDel, Shards: shards, Waterfall: wf,
		Fanout: &fleet.FanoutConfig{Degree: degree, RPS: rps, RequestBytes: legBytes, Tracer: tr},
	})
	res := f.Run()
	if res.Requests == 0 || res.Sender.Checked == 0 {
		t.Fatalf("fanout_rpc seed %d: %d requests, %d samples checked — the row pins nothing", seed, res.Requests, res.Sender.Checked)
	}

	var r row
	addFleetResult(t, &r, res, f.Snapshot())
	report, spans := newDigest(), newDigest()
	tr.Report().WriteTable(report)
	if err := tr.WriteJSONL(spans); err != nil {
		t.Fatal(err)
	}
	r.add("reqtrace report", report)
	r.add("reqtrace spans", spans)
	addFleetWaterfall(&r, wf)
	return r
}

// churnRow is the fleet_churn shape: staggered opens, early closes,
// crashes and stalls under the supervisor, stream windows with
// escalation through a retrying export queue, and a retained-sample
// budget the governor has to shed for.
func churnRow(t *testing.T, seed int64, shards int) row {
	t.Helper()
	export, wf := newDigest(), waterfall.New()
	f := fleet.New(fleet.Config{
		Seed: seed, Connections: 48, Duration: 2 * units.Second,
		Rate: 4 * units.Mbps, RTT: 40 * units.Millisecond, Interval: 10 * units.Millisecond,
		Shards: shards,
		Churn: fleet.ChurnConfig{
			OpenWindow: 500 * units.Millisecond,
			CloseFrac:  .1, CrashFrac: .2, StallFrac: .1,
		},
		Stream: &fleet.StreamConfig{
			Window: 250 * units.Millisecond,
			Rules:  stream.Rules{P99Above: 100 * units.Millisecond},
			Sink:   stream.NewBatchExporter(export, 0),
		},
		Overload:    &overload.Config{Budgets: overload.Budgets{RetainedSamples: 2500}},
		ExportQueue: &overload.QueueConfig{},
		Waterfall:   wf,
	})
	res := f.Run()
	if res.Restarts == 0 || res.Escalations == 0 || res.Sheds == 0 || res.StreamWindows == 0 {
		t.Fatalf("fleet_churn seed %d: restarts %d, escalations %d, sheds %d, windows %d — a path the row should pin did not run",
			seed, res.Restarts, res.Escalations, res.Sheds, res.StreamWindows)
	}

	var r row
	addFleetResult(t, &r, res, f.Snapshot())
	r.add("stream export", export)
	addFleetWaterfall(&r, wf)
	return r
}

// scaleRow is the scale_lite shape with the two-phase escalation left on
// under a LiveFull budget, so the lite columns, the promoted trackers and
// the governor all leave bytes behind.
func scaleRow(t *testing.T, seed int64, shards int) row {
	t.Helper()
	export := newDigest()
	f := fleet.NewScale(fleet.ScaleConfig{
		Seed: seed, Flows: 3000, Duration: 2 * units.Second, Interval: 100 * units.Millisecond,
		Shards: shards, Sink: stream.NewTextExporter(export),
		Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: 16}},
	})
	res := f.Run()
	if res.Polls == 0 || res.Escalations == 0 || res.StreamWindows == 0 {
		t.Fatalf("scale_lite seed %d: polls %d, escalations %d, windows %d — a path the row should pin did not run",
			seed, res.Polls, res.Escalations, res.StreamWindows)
	}

	var r row
	counters := newDigest()
	fmt.Fprintf(counters, "%+v", *res)
	r.add("result counters", counters)
	addSnapshot(t, &r, f.Snapshot())
	r.add("stream export", export)
	return r
}

// TestExperimentsDocCurrent holds EXPERIMENTS.md's "Full generated
// results" to `elembench -md`: every table and note line of a seed-1,
// default-duration run of each registered experiment (wall-clock rows
// excepted) must appear in that experiment's section, and the sections
// must stand in registry order. About 2.5 min, so it runs only under
// ELEMENT_SOAK=1 (`make experiments-current`).
func TestExperimentsDocCurrent(t *testing.T) {
	if os.Getenv("ELEMENT_SOAK") != "1" {
		t.Skip("set ELEMENT_SOAK=1 (make experiments-current): reruns every experiment at its default duration")
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// A section is the lines from its "### `id` — title" heading to the next.
	sections := map[string]map[string]bool{}
	var order []string
	var cur map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "### `") {
			id := strings.SplitN(line[len("### `"):], "`", 2)[0]
			cur = map[string]bool{}
			sections[id] = cur
			order = append(order, id)
		}
		if cur != nil {
			cur[line] = true
		}
	}
	var registered []string
	for _, e := range exp.Registry {
		registered = append(registered, e.ID)
		section, ok := sections[e.ID]
		if !ok {
			t.Errorf("%s: no section in EXPERIMENTS.md", e.ID)
			continue
		}
		for _, line := range deterministicLines(e.Run(1, 0)) {
			if !section[line] {
				t.Errorf("%s: not in its EXPERIMENTS.md section: %s", e.ID, line)
			}
		}
	}
	if !reflect.DeepEqual(order, registered) {
		t.Errorf("EXPERIMENTS.md sections %v, registry order %v", order, registered)
	}
}
