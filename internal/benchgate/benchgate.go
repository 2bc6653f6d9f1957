// Package benchgate is the benchmark-regression harness: it parses
// `go test -bench` output into a machine-readable snapshot and compares
// a fresh run against a committed baseline, so an allocation regression
// or a deleted benchmark fails `make bench-gate` the same way a broken
// test fails `make check`.
//
// A snapshot holds what one -benchtime 1x iteration supports: allocs/op
// and B/op, which are properties of the code and not of the machine, and
// the simulated domain metrics a benchmark reports, which are
// deterministic. Nanoseconds per op are not recorded — one iteration of a
// cold loop is not a timing; benchmark/ owns those, with medians and
// quartiles. Snapshots written before that still load: the ns_per_op
// field they carry is ignored.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line from `go test -bench`.
type Result struct {
	Pkg        string `json:"pkg"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// BytesPerOp/AllocsPerOp are present only when the benchmark
	// reports allocations (-benchmem reports them for every benchmark).
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is one whole benchmark run: the BENCH_*.json document.
type Snapshot struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

// Load reads a snapshot from a JSON file (typically the committed
// baseline).
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Write serializes the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseGoBench walks `go test -bench` text output. Benchmark result
// lines look like
//
//	BenchmarkFig2-8   1   123456789 ns/op   4096 B/op   12 allocs/op
//
// (recorded as "BenchmarkFig2", see stripProcs) and each package's
// results are preceded by a "pkg: <import path>" context line (or
// followed by an "ok <import path> ..." summary, which is used as a
// fallback when no pkg line appeared).
func ParseGoBench(r io.Reader) ([]Result, error) {
	var (
		results []Result
		pkg     string
		pending int // results[pending:] still need a package name
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			for i := pending; i < len(results); i++ {
				results[i].Pkg = pkg
			}
		case strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "ok\t"):
			// "ok  element/internal/exp  12.3s" closes the package:
			// name any still-unlabelled results (covers GOFLAGS
			// configurations that omit the pkg: header).
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				for i := pending; i < len(results); i++ {
					if results[i].Pkg == "" {
						results[i].Pkg = fields[1]
					}
				}
			}
			pending = len(results)
			pkg = ""
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Pkg = pkg
				results = append(results, r)
			}
		}
	}
	// A scanner error (e.g. a line beyond the 1 MiB buffer) silently
	// truncates the walk; surface it instead of snapshotting a subset.
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// stripProcs drops the "-N" suffix go test appends to a benchmark's name
// when GOMAXPROCS is N > 1, so a snapshot names a benchmark the same on
// any machine; otherwise a baseline recorded on a 2-core box would read
// as "every benchmark missing" on a 4-core one and gate nothing.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseLine decodes one benchmark result line: the name (without its
// GOMAXPROCS suffix), the iteration count, then (value, unit) pairs.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: stripProcs(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			// not recorded: see the package comment
		case "B/op":
			val := v
			r.BytesPerOp = &val
		case "allocs/op":
			val := v
			r.AllocsPerOp = &val
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}
