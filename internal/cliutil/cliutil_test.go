package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/faults"
	"element/internal/netem"
)

func TestValidateOutputPath(t *testing.T) {
	dir := t.TempDir()
	if err := ValidateOutputPath("o", filepath.Join(dir, "out.json")); err != nil {
		t.Fatalf("existing parent rejected: %v", err)
	}
	if err := ValidateOutputPath("o", ""); err != nil {
		t.Fatalf("empty path rejected: %v", err)
	}
	if err := ValidateOutputPath("o", "-"); err != nil {
		t.Fatalf("stdout convention rejected: %v", err)
	}
	err := ValidateOutputPath("snapshot", filepath.Join(dir, "missing", "out.json"))
	if err == nil {
		t.Fatal("missing parent accepted")
	}
	if !strings.Contains(err.Error(), "-snapshot") || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("error does not name the flag and the cause: %v", err)
	}
	if err := ValidateOutputPath("o", dir); err == nil {
		t.Fatal("directory target accepted as output file")
	}
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateOutputPath("o", filepath.Join(file, "x.json")); err == nil {
		t.Fatal("file used as parent directory accepted")
	}
}

func TestValidateInputPath(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "in.json")
	if err := os.WriteFile(file, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateInputPath("resume", file); err != nil {
		t.Fatalf("existing input rejected: %v", err)
	}
	if err := ValidateInputPath("resume", ""); err != nil {
		t.Fatalf("empty input rejected: %v", err)
	}
	if err := ValidateInputPath("resume", filepath.Join(dir, "gone.json")); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := ValidateInputPath("resume", dir); err == nil {
		t.Fatal("directory input accepted")
	}
}

// testFormat stands in for a package's export format type.
type testFormat string

func parseTestFormat(s string) (testFormat, error) {
	if s != "chrome" && s != "jsonl" {
		return "", fmt.Errorf("test: unknown format %q (have chrome, jsonl)", s)
	}
	return testFormat(s), nil
}

// parseFlags registers one export pair and -faults on a fresh flag set
// and parses args, as a command's main does.
func parseFlags(t *testing.T, args ...string) (*Export[testFormat], *Faults) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	out := exportFlag(fs, "reqtrace", "span trees", "reqtrace-format", "chrome", "chrome|jsonl", parseTestFormat)
	flt := faultsFlag(fs, "fault profile: ")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return out, flt
}

func TestExportBadFormatNamesItsFlag(t *testing.T) {
	out, flt := parseFlags(t, "-reqtrace", filepath.Join(t.TempDir(), "x.json"), "-reqtrace-format", "yaml")
	err := Validate(out, flt)
	if err == nil || !strings.HasPrefix(err.Error(), "-reqtrace-format: ") || !strings.Contains(err.Error(), `"yaml"`) {
		t.Fatalf("bad format: %v, want an error naming -reqtrace-format and the value", err)
	}
	// The format is checked even without a path: a typo never waits for
	// the run that would have used it.
	out, flt = parseFlags(t, "-reqtrace-format", "yaml")
	if err := Validate(out, flt); err == nil {
		t.Fatal("bad format without a path accepted")
	}
}

func TestExportDashIsStdout(t *testing.T) {
	out, flt := parseFlags(t, "-reqtrace", "-", "-reqtrace-format", "jsonl")
	if err := Validate(out, flt); err != nil {
		t.Fatalf("stdout export rejected: %v", err)
	}
	if out.Path != "-" || out.Format != "jsonl" {
		t.Fatalf("parsed %q/%q, want -/jsonl", out.Path, out.Format)
	}
	dir := t.TempDir()
	capture, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = capture
	err = out.Write(func(w io.Writer, f testFormat) error { _, err := io.WriteString(w, string(f)); return err })
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	capture.Close()
	if got, _ := os.ReadFile(capture.Name()); string(got) != "jsonl" {
		t.Fatalf("standard output got %q, want the export in its parsed format", got)
	}
	if _, err := os.Stat("-"); err == nil {
		os.Remove("-")
		t.Fatal(`Export.Write created a file named "-"`)
	}
}

// A bad destination fails in Validate, which commands call before any
// work: nothing has been written, and the error names the path flag.
func TestValidateBadPathFailsBeforeWork(t *testing.T) {
	dir := t.TempDir()
	out, flt := parseFlags(t, "-reqtrace", filepath.Join(dir, "missing", "x.json"), "-faults", "stale-info")
	err := Validate(out, flt)
	if err == nil || !strings.Contains(err.Error(), "-reqtrace:") || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing directory: %v, want an error naming -reqtrace", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("validation created the missing directory: %v", err)
	}
}

// Validate checks its groups in order, and the first failure is the one
// reported.
func TestValidateNamesFirstFailure(t *testing.T) {
	out, bad := parseFlags(t, "-reqtrace", filepath.Join(t.TempDir(), "missing", "x.json"), "-faults", "bogus")
	if err := Validate(out, bad); err == nil || !strings.HasPrefix(err.Error(), "-reqtrace: ") {
		t.Fatalf("Validate(export, faults) = %v, want the -reqtrace failure", err)
	}
	if err := Validate(bad, out); err == nil || !strings.HasPrefix(err.Error(), "-faults: ") {
		t.Fatalf("Validate(faults, export) = %v, want the -faults failure", err)
	}
}

func TestFaultsUnknownProfileListsNames(t *testing.T) {
	out, flt := parseFlags(t, "-faults", "bogus")
	err := Validate(out, flt)
	if err == nil || !strings.HasPrefix(err.Error(), "-faults: ") {
		t.Fatalf("unknown profile: %v, want an error naming -faults", err)
	}
	for _, name := range faults.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list the valid profile %q", err, name)
		}
	}
	if flt.Profile != nil {
		t.Fatal("unknown profile resolved to a profile")
	}
	out, flt = parseFlags(t, "-faults", "stale-info")
	if err := Validate(out, flt); err != nil || flt.Profile == nil || flt.Profile.Name != "stale-info" {
		t.Fatalf("known profile: %v, %+v", err, flt.Profile)
	}
	out, flt = parseFlags(t)
	if err := Validate(out, flt); err != nil || flt.Profile != nil {
		t.Fatalf("unset -faults: %v, %+v; want no profile", err, flt.Profile)
	}
}

// An enumerated flag's value is checked by the constructor it feeds: a
// bad value fails under the flag's name and lists the accepted values,
// and the groups report in order like any other.
func TestCheckEnumeratedFlags(t *testing.T) {
	_, qdiscErr := aqm.New("fifoo", aqm.Config{}, nil)
	_, ccErr := cc.New("cubik", 0, nil)
	_, profErr := netem.ProfileByName("lten")
	for _, c := range []struct {
		flag string
		err  error
		want []string
	}{
		{"qdisc", qdiscErr, []string{"pfifo_fast", "codel", "fq_codel", "pie", "sfq"}},
		{"cc", ccErr, []string{"reno", "cubic", "vegas", "bbr"}},
		{"profile", profErr, []string{"wired-low-bw", "wired-high-bw", "lan", "cable", "wifi", "lte"}},
	} {
		err := Validate(Check(c.flag, c.err))
		if err == nil || !strings.HasPrefix(err.Error(), "-"+c.flag+": ") {
			t.Fatalf("-%s: %v, want an error naming the flag", c.flag, err)
		}
		for _, v := range c.want {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("-%s: error %q does not list %q", c.flag, err, v)
			}
		}
	}
	for _, kind := range []aqm.Kind{aqm.KindFIFO, aqm.KindCoDel, aqm.KindFQCoDel, aqm.KindPIE, aqm.KindSFQ} {
		_, err := aqm.New(kind, aqm.Config{}, nil)
		if err := Validate(Check("qdisc", err)); err != nil {
			t.Errorf("-qdisc %s rejected: %v", kind, err)
		}
	}
	_, defaultCC := cc.New("", 0, nil)
	out, flt := parseFlags(t, "-faults", "bogus")
	if err := Validate(Check("cc", defaultCC), Check("qdisc", qdiscErr), out, flt); err == nil || !strings.HasPrefix(err.Error(), "-qdisc: ") {
		t.Fatalf("Validate(cc, qdisc, export, faults) = %v, want the -qdisc failure", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	entries := func() []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	// Success: creates, then replaces, leaving only the target behind.
	path := filepath.Join(dir, "run.snap")
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(want), 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode = %v, %v; want 0600", fi.Mode(), err)
	}
	if got := entries(); len(got) != 1 || got[0] != "run.snap" {
		t.Fatalf("directory holds %v after two writes, want only run.snap", got)
	}

	// Failure at the rename (the target is a non-empty directory): the
	// error surfaces, the target is untouched and the temporary file is
	// gone.
	busy := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(busy, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(busy, []byte("x"), 0o644); err == nil {
		t.Fatal("writing over a non-empty directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(busy, "keep")); err != nil {
		t.Fatalf("failed write damaged the target: %v", err)
	}
	if got := entries(); len(got) != 2 {
		t.Fatalf("failed write left litter: %v", got)
	}

	// Failure before any byte is written (no room for the temporary
	// file's name beside a maximum-length target): the existing file
	// survives intact.
	long := filepath.Join(dir, strings.Repeat("n", 255))
	if err := os.WriteFile(long, []byte("precious"), 0o644); err != nil {
		t.Skipf("file system rejects 255-byte names: %v", err)
	}
	if err := WriteFileAtomic(long, []byte("new"), 0o644); err == nil {
		t.Fatal("write with an over-long temporary name succeeded")
	}
	if got, err := os.ReadFile(long); err != nil || string(got) != "precious" {
		t.Fatalf("existing file after a failed write: %q, %v", got, err)
	}
	if got := entries(); len(got) != 3 {
		t.Fatalf("failed write left litter: %v", got)
	}
}

func TestWriteExport(t *testing.T) {
	dir := t.TempDir()
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello"); return err }

	path := filepath.Join(dir, "out.json")
	if err := WriteExport(path, hello); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// "-" is standard output, not a file of that name in the working
	// directory.
	stdout := os.Stdout
	capture, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = capture
	err = WriteExport("-", hello)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if err := capture.Close(); err != nil {
		t.Fatalf("WriteExport closed standard output: %v", err)
	}
	if got, _ := os.ReadFile(capture.Name()); string(got) != "hello" {
		t.Fatalf("standard output got %q", got)
	}
	if _, err := os.Stat("-"); err == nil {
		os.Remove("-")
		t.Fatal(`WriteExport("-") created a file named "-"`)
	}

	// The exporter's error and a failed create both come back.
	boom := errors.New("boom")
	if err := WriteExport(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("write error lost: %v", err)
	}
	if err := WriteExport(filepath.Join(dir, "missing", "x"), hello); err == nil {
		t.Fatal("create in a missing directory succeeded")
	}
}
