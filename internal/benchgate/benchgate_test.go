package benchgate

import (
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
	if ring.NsPerOp != 488.6 || ring.AllocsPerOp == nil || *ring.AllocsPerOp != 0 {
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
}

func TestCompareAdmitsNoise(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	// Within-tolerance drift: 2x ns (limit 4x), +10% allocs (limit +25%).
	cur.Benchmarks[0].NsPerOp *= 2
	*cur.Benchmarks[2].AllocsPerOp *= 1.10
	if regs := Compare(base, cur, Tolerance{}); len(regs) != 0 {
		t.Fatalf("in-tolerance run flagged: %v", regs)
	}
}

// TestCompareFlagsSyntheticRegressions injects each regression class the
// gate exists to catch and checks it fails: a new allocation on a
// zero-alloc path, an alloc-count blowup, an order-of-magnitude ns/op
// slowdown, and a deleted benchmark.
func TestCompareFlagsSyntheticRegressions(t *testing.T) {
	base := parseSample(t)

	t.Run("alloc on zero-alloc path", func(t *testing.T) {
		cur := parseSample(t)
		one := 1.0
		cur.Benchmarks[0].AllocsPerOp = &one
		regs := Compare(base, cur, Tolerance{})
		if len(regs) != 1 || regs[0].Metric != "allocs/op" || regs[0].Limit != 0 {
			t.Fatalf("0→1 allocs/op not gated exactly: %v", regs)
		}
	})

	t.Run("alloc blowup", func(t *testing.T) {
		cur := parseSample(t)
		*cur.Benchmarks[2].AllocsPerOp *= 1.5
		regs := Compare(base, cur, Tolerance{})
		if len(regs) != 1 || regs[0].Metric != "allocs/op" {
			t.Fatalf("+50%% allocs/op not gated: %v", regs)
		}
	})

	t.Run("ns blowup", func(t *testing.T) {
		cur := parseSample(t)
		cur.Benchmarks[1].NsPerOp *= 10
		regs := Compare(base, cur, Tolerance{})
		if len(regs) != 1 || regs[0].Metric != "ns/op" {
			t.Fatalf("10x ns/op not gated: %v", regs)
		}
	})

	t.Run("deleted benchmark", func(t *testing.T) {
		cur := parseSample(t)
		cur.Benchmarks = cur.Benchmarks[:2]
		regs := Compare(base, cur, Tolerance{})
		if len(regs) != 1 || regs[0].Metric != "missing" {
			t.Fatalf("deleted benchmark not gated: %v", regs)
		}
	})
}

func TestCompareIgnoresNewBenchmarks(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	cur.Benchmarks = append(cur.Benchmarks, Result{
		Pkg: "element/internal/new", Name: "BenchmarkBrandNew-8", NsPerOp: 1e12,
	})
	if regs := Compare(base, cur, Tolerance{}); len(regs) != 0 {
		t.Fatalf("benchmark absent from baseline flagged: %v", regs)
	}
}
