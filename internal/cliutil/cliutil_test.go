package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestValidateOutputPathsNamesFirstSortedFailure(t *testing.T) {
	dir := t.TempDir()
	err := ValidateOutputPaths(map[string]string{
		"waterfall": filepath.Join(dir, "missing", "w"),
		"telemetry": filepath.Join(dir, "missing", "t"),
		"ok":        filepath.Join(dir, "fine.json"),
	})
	if err == nil {
		t.Fatal("want failure")
	}
	if !strings.Contains(err.Error(), "-telemetry") {
		t.Fatalf("want sorted-first flag (-telemetry) in error, got: %v", err)
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
