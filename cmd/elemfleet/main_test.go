package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as elemfleet: with
// ELEMFLEET_RUN_MAIN set, the process is main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ELEMFLEET_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runElemfleet runs main in a child process and returns its exit code
// and standard error.
func runElemfleet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, _, stderr := runElemfleetOut(t, args...)
	return code, stderr
}

// runElemfleetOut is runElemfleet that also returns standard output.
func runElemfleetOut(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ELEMFLEET_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatalf("running elemfleet %v: %v", args, err)
	return 0, "", ""
}

// TestBadFlagFailsBeforeWork: a bad export format, export path, fault
// profile or congestion control exits 2 naming its flag, and prints nothing on stdout — the
// fleet never ran.
func TestBadFlagFailsBeforeWork(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "spans.json")
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fanout", "2", "-reqtrace", "-", "-reqtrace-format", "yaml"}, "-reqtrace-format"},
		{[]string{"-fanout", "2", "-reqtrace", missing}, "-reqtrace"},
		{[]string{"-faults", "bogus"}, "-faults"},
		{[]string{"-cc", "cubik"}, "-cc"},
	} {
		args := append([]string{"-conns", "2", "-dur", "0.2"}, c.args...)
		code, stdout, stderr := runElemfleetOut(t, args...)
		if code != 2 || !strings.Contains(stderr, "elemfleet: "+c.flag+": ") || stdout != "" {
			t.Errorf("elemfleet %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output",
				args, code, stdout, stderr, c.flag)
		}
	}
}

// TestScaleRejectsUnreadFlags: -scale mode exits 2 on a flag it would
// silently ignore, naming the first one set in lexical order, before it
// simulates anything; the flags it reads still run.
func TestScaleRejectsUnreadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "50", "-conns", "5"}, "-conns"},
		{[]string{"-scale", "50", "-budget-live", "4", "-budget-export-bps", "100"}, "-budget-export-bps"},
		{[]string{"-scale", "50", "-stream", "-stream-format", "jsonl", "-overload"}, "-overload"},
		{[]string{"-minimize", "-scale", "50", "-faults", "none"}, "-faults"},
	} {
		code, stderr := runElemfleet(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.flag+" has no effect with -scale") {
			t.Errorf("elemfleet %v: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.flag)
		}
	}
	if code, stderr := runElemfleet(t, "-scale", "50", "-dur", "0.2", "-seed", "2", "-shards", "1", "-budget-live", "4"); code != 0 {
		t.Errorf("a -scale run with only the flags it reads: exit %d, stderr %q", code, stderr)
	}
}

// TestWaterfallPrintsMarkers: the fleet's recorders keep no markers, but
// -waterfall still prints the marker counts they saw. An 8-connection
// one-second fleet resizes its send buffers a few hundred times (416 at
// seed 1) and drops nothing.
func TestWaterfallPrintsMarkers(t *testing.T) {
	code, stdout, stderr := runElemfleetOut(t, "-conns", "8", "-dur", "1", "-waterfall")
	if code != 0 {
		t.Fatalf("elemfleet -waterfall: exit %d, stderr %q", code, stderr)
	}
	i := strings.Index(stdout, "  markers: ")
	if i < 0 {
		t.Fatalf("no markers line in\n%s", stdout)
	}
	var queue, wire, resizes int
	if _, err := fmt.Sscanf(stdout[i:], "  markers: %d queue drops, %d wire drops, %d sndbuf resizes",
		&queue, &wire, &resizes); err != nil || resizes == 0 {
		t.Fatalf("markers line %q: %d resizes, err %v", strings.SplitN(stdout[i:], "\n", 2)[0], resizes, err)
	}
}
