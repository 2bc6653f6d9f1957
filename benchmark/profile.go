package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The cost waterfall is read from CPU profiles of the real run phase
// (runtime/pprof), not modelled. The standard library writes profiles
// but keeps its reader internal, so this file decodes the few fields of
// the gzipped profile.proto the waterfall needs: each sample's CPU
// nanoseconds and the function names of its stack.

// stackSample is one profile sample: frames leaf first, inlined calls
// expanded, and the CPU time the sample stands for.
type stackSample struct {
	frames []string
	ns     int64
}

var errProfile = errors.New("malformed CPU profile")

// protoFields calls fn for every field of one protobuf message: v holds
// a varint or fixed-width value, data a length-delimited one.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if key&7 == 5 {
				width = 4
			}
			if len(b) < width {
				return errProfile
			}
			for i := width - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[width:]
		case 2:
			size, n := uvarint(b)
			if n == 0 || size > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(size)], b[n+int(size):]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// repeatedVarints appends one element of a repeated integer field, which
// arrives either packed (data) or one value at a time (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes what runtime/pprof.StartCPUProfile wrote.
// Field numbers are profile.proto's: Profile{sample 2, location 4,
// function 5, string_table 6}, Sample{location_id 1, value 2},
// Location{id 1, line 4}, Line{function_id 1}, Function{id 1, name 2}.
// A CPU profile's second sample value is nanoseconds.
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var samples []rawSample
	var strs []string
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string-table index
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			var values []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, data)
				case 2:
					values, err = repeatedVarints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) != 2 {
				return errProfile
			}
			s.ns = int64(values[1])
			samples = append(samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5:
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, len(samples))
	for i, s := range samples {
		out[i].ns = s.ns
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := funcName[fn]
				if name >= uint64(len(strs)) {
					return nil, errProfile
				}
				out[i].frames = append(out[i].frames, strs[name])
			}
		}
	}
	return out, nil
}

const internalPrefix = "element/internal/"

// Rows of the cost waterfall that are not internal/ packages.
const (
	rowGC       = "gc"
	rowRuntime  = "runtime"
	rowResidual = "residual"
)

// costRow names the cost-waterfall row that owns a sample: the innermost
// frame inside element/internal/ — so the allocation, map and copy work
// a layer causes is charged to that layer, not to "runtime" — by its
// package's last path element. A stack with no such frame is the
// collector's background work (gc), the runtime between goroutines
// (scheduler, futex sleep and wake-up: runtime), or the harness itself
// and anything unforeseen (residual).
func costRow(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg[strings.LastIndexByte(pkg, '/')+1:]
		}
	}
	onlyRuntime := true
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"):
			return rowGC
		case !strings.HasPrefix(f, "runtime."):
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return rowRuntime
	}
	return rowResidual
}
