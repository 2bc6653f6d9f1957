// Package cliutil holds small helpers shared by the command-line front
// ends. Its main job is up-front validation of output-path flags: a run
// that simulates for minutes and then dies on os.Create because the
// target directory never existed is the failure mode this prevents —
// every command validates its export destinations before any work starts.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ValidateOutputPath checks that the file named by an output flag can
// plausibly be created at the end of the run: the parent directory must
// exist and be a directory, and path itself must not name an existing
// directory. Empty paths and "-" (stdout convention) are skipped. The
// returned error names the flag so the message points at the right knob.
func ValidateOutputPath(flagName, path string) error {
	if path == "" || path == "-" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("-%s: %q is a directory, want a file path", flagName, path)
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("-%s: directory %q does not exist (create it first)", flagName, dir)
		}
		return fmt.Errorf("-%s: %v", flagName, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-%s: %q is not a directory", flagName, dir)
	}
	return nil
}

// ValidateInputPath checks that the file named by an input flag exists and
// is not a directory. Empty paths and "-" are skipped.
func ValidateInputPath(flagName, path string) error {
	if path == "" || path == "-" {
		return nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("-%s: %q does not exist", flagName, path)
		}
		return fmt.Errorf("-%s: %v", flagName, err)
	}
	if fi.IsDir() {
		return fmt.Errorf("-%s: %q is a directory, want a file", flagName, path)
	}
	return nil
}

// ValidateOutputPaths validates several (flag, path) pairs and returns the
// first failure.
func ValidateOutputPaths(pairs map[string]string) error {
	// Deterministic order is not needed for correctness, but stable error
	// selection makes scripting against the messages less surprising:
	// validate in sorted flag order.
	flags := make([]string, 0, len(pairs))
	for f := range pairs {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	for _, f := range flags {
		if err := ValidateOutputPath(f, pairs[f]); err != nil {
			return err
		}
	}
	return nil
}

// WriteExport runs write against the file an export flag names, or against
// standard output when path is "-" (the convention ValidateOutputPath
// accepts for every export flag). It returns the first error of create,
// write and close, so a caller that announces the file after a nil return
// never announces one that did not reach the disk.
func WriteExport(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() // already failing; the write error is the one to report
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes data to path so that a reader — or a later run
// after a crash — sees either the previous contents or the new ones,
// never a prefix: the bytes go to a temporary file in the target's own
// directory (rename is only atomic within a file system), are synced to
// disk, and then renamed over path. On any error the temporary file is
// removed and path is left untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // already failing; the first error is the one to report
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
