package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result so a reader can judge a set
// without having been there: toolchain, cores, and how busy the box was.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	// Loaded flags (it does not refuse) a set taken while the 1-minute
	// load average exceeded the core count: its timings are suspect.
	Loaded bool `json:"loaded"`
}

func readEnvironment() environment {
	e := environment{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg1:   loadAvg1(),
	}
	e.Loaded = e.LoadAvg1 > float64(e.NProc)
	return e
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: %s nproc=%d GOMAXPROCS=%d loadavg=%.2f shards=%d\n", e.GoVersion, e.NProc, e.GOMAXPROCS, e.LoadAvg1, shards)
	if e.Loaded {
		fmt.Fprintf(w, "env: WARNING: 1-minute load average %.2f exceeds nproc %d; timings from this run are suspect\n", e.LoadAvg1, e.NProc)
	}
}

// loadAvg1 reads the 1-minute load average (0 where /proc is absent).
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM)
// in MB (0 where /proc is absent).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}
