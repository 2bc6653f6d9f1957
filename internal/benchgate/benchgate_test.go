package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: element/internal/core
cpu: Intel(R) Xeon(R) CPU
BenchmarkRingMatch/impl=ring-8         	 2434202	       488.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkRingMatch/impl=slice-8        	 1000000	      1022 ns/op	       0 B/op	       0 allocs/op
ok  	element/internal/core	3.861s
BenchmarkFleetSharded/shards=4-8       	       3	  39390522 ns/op	11675808 B/op	  195642 allocs/op
ok  	element/internal/fleet	0.478s
`

func parseSample(t *testing.T) *Snapshot {
	t.Helper()
	results, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Benchtime: "1x", Benchmarks: results}
}

func TestParseGoBench(t *testing.T) {
	snap := parseSample(t)
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	ring := snap.Benchmarks[0]
	if ring.Pkg != "element/internal/core" || ring.Name != "BenchmarkRingMatch/impl=ring" {
		t.Fatalf("first benchmark misparsed: %+v", ring)
	}
	// The -8 GOMAXPROCS suffix is dropped; a name go test printed without
	// one (GOMAXPROCS=1) is kept whole, hyphens and all.
	if got := stripProcs("BenchmarkAblationAutotune/fixed-128KiB"); got != "BenchmarkAblationAutotune/fixed-128KiB" {
		t.Fatalf("stripProcs ate part of a name: %q", got)
	}
	if ring.AllocsPerOp == nil || *ring.AllocsPerOp != 0 || len(ring.Extra) != 0 {
		t.Fatalf("ring metrics misparsed: %+v", ring)
	}
	// The fleet line has no preceding pkg: header — the trailing "ok"
	// summary must name it.
	fl := snap.Benchmarks[2]
	if fl.Pkg != "element/internal/fleet" {
		t.Fatalf("fallback package naming failed: %+v", fl)
	}
	if fl.Iterations != 3 || *fl.AllocsPerOp != 195642 {
		t.Fatalf("fleet metrics misparsed: %+v", fl)
	}
	// One iteration is not a timing: ns/op is parsed past, not recorded.
	var out strings.Builder
	if err := snap.Write(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ns_per_op") || strings.Contains(out.String(), "ns/op") {
		t.Fatalf("snapshot records ns/op:\n%s", out.String())
	}
}

func TestCompareAdmitsNoise(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	// Within-tolerance drift: +10% allocs (limit +25%).
	*cur.Benchmarks[2].AllocsPerOp *= 1.10
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("in-tolerance run flagged: %v", regs)
	}
}

// TestCompareFlagsSyntheticRegressions injects each regression class the
// gate exists to catch and checks it fails: allocations on a zero-alloc
// path beyond the stray-allocation slack, an alloc-count blowup, and a
// deleted benchmark.
func TestCompareFlagsSyntheticRegressions(t *testing.T) {
	base := parseSample(t)

	// A 1x run counts a stray runtime allocation whole, so a zero baseline
	// admits allocSlack and not one more; exact zero is the packages'
	// AllocsPerRun tests' job.
	t.Run("alloc on zero-alloc path", func(t *testing.T) {
		cur := parseSample(t)
		n := float64(allocSlack)
		cur.Benchmarks[0].AllocsPerOp = &n
		if regs := Compare(base, cur); len(regs) != 0 {
			t.Fatalf("0→%v allocs/op is inside the slack but was flagged: %v", n, regs)
		}
		n++
		regs := Compare(base, cur)
		if len(regs) != 1 || regs[0].Metric != "allocs/op" || regs[0].Limit != allocSlack {
			t.Fatalf("0→%v allocs/op not gated at the slack: %v", n, regs)
		}
	})

	t.Run("alloc blowup", func(t *testing.T) {
		cur := parseSample(t)
		*cur.Benchmarks[2].AllocsPerOp *= 1.5
		regs := Compare(base, cur)
		if len(regs) != 1 || regs[0].Metric != "allocs/op" {
			t.Fatalf("+50%% allocs/op not gated: %v", regs)
		}
	})

	t.Run("deleted benchmark", func(t *testing.T) {
		cur := parseSample(t)
		cur.Benchmarks = cur.Benchmarks[:2]
		regs := Compare(base, cur)
		if len(regs) != 1 || regs[0].Metric != "missing" {
			t.Fatalf("deleted benchmark not gated: %v", regs)
		}
	})
}

func TestCompareIgnoresNewBenchmarks(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	cur.Benchmarks = append(cur.Benchmarks, Result{
		Pkg: "element/internal/new", Name: "BenchmarkBrandNew-8",
	})
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("benchmark absent from baseline flagged: %v", regs)
	}
}

// TestLoadIgnoresNsPerOp: snapshots committed before ns/op left the
// format carry the field; they must still load and gate.
func TestLoadIgnoresNsPerOp(t *testing.T) {
	const old = `{"date":"2026-10-03","go_version":"go1.24.0","goos":"linux","goarch":"amd64","benchtime":"1x",
"benchmarks":[{"pkg":"element/internal/core","name":"BenchmarkRingMatch/impl=ring","iterations":1,
"ns_per_op":10576,"bytes_per_op":0,"allocs_per_op":0,"extra":{"sim-s/wall-s":1245}}]}`
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Benchmarks[0]
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 0 || r.Extra["sim-s/wall-s"] != 1245 {
		t.Fatalf("pre-change snapshot misread: %+v", r)
	}
	if regs := Compare(snap, parseSample(t)); len(regs) != 0 {
		t.Fatalf("gating against a pre-change snapshot: %v", regs)
	}
	// Every snapshot committed at the repo root, either shape.
	committed, _ := filepath.Glob("../../BENCH_*.json")
	for _, path := range committed {
		if snap, err := Load(path); err != nil {
			t.Error(err)
		} else if len(snap.Benchmarks) == 0 {
			t.Errorf("%s: no benchmarks", path)
		}
	}
}
