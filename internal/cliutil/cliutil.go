// Package cliutil holds small helpers shared by the command-line front
// ends. Its main job is up-front validation of flags: a run that
// simulates for minutes and then dies on os.Create because the target
// directory never existed, or on an export format nobody spelled right,
// is the failure mode this prevents — every command validates its export
// pairs and its fault profile before any work starts.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"element/internal/faults"
)

// validator is a flag group Validate checks once flags are parsed.
type validator interface{ validate() error }

// Validate checks each flag group in order and returns the first error,
// which names its flag. Commands call it right after flag.Parse, so a bad
// path, format or profile ends the run before anything is simulated.
func Validate(groups ...validator) error {
	for _, g := range groups {
		if err := g.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Export is one export flag pair: a path flag selects the destination
// ("-" = standard output, "" = no export) and a format flag its
// encoding. Path and Format are valid after Validate.
type Export[F ~string] struct {
	Path   string
	Format F

	name, formatName, formatArg string
	parse                       func(string) (F, error)
}

// ExportFlag registers an export pair on the command line: the path flag
// name with usage, and the format flag formatName with its default and
// usage, parsed by parse.
func ExportFlag[F ~string](name, usage, formatName, formatDefault, formatUsage string, parse func(string) (F, error)) *Export[F] {
	return exportFlag(flag.CommandLine, name, usage, formatName, formatDefault, formatUsage, parse)
}

func exportFlag[F ~string](fs *flag.FlagSet, name, usage, formatName, formatDefault, formatUsage string, parse func(string) (F, error)) *Export[F] {
	e := &Export[F]{name: name, formatName: formatName, parse: parse}
	fs.StringVar(&e.Path, name, "", usage)
	fs.StringVar(&e.formatArg, formatName, formatDefault, formatUsage)
	return e
}

func (e *Export[F]) validate() error {
	f, err := e.parse(e.formatArg)
	if err != nil {
		return fmt.Errorf("-%s: %w", e.formatName, err)
	}
	e.Format = f
	return ValidateOutputPath(e.name, e.Path)
}

// Write runs write against the export's destination in its format (see
// WriteExport).
func (e *Export[F]) Write(write func(io.Writer, F) error) error {
	return WriteExport(e.Path, func(w io.Writer) error { return write(w, e.Format) })
}

// Check returns a Validate group that reports err — the outcome of
// checking flag name's value — under the flag's name. An enumerated flag
// (-qdisc, -cc, -profile) is checked by the constructor its value feeds,
// whose error lists the accepted values.
func Check(name string, err error) validator { return checked{name, err} }

type checked struct {
	name string
	err  error
}

func (c checked) validate() error {
	if c.err != nil {
		return fmt.Errorf("-%s: %w", c.name, c.err)
	}
	return nil
}

// Faults is the -faults flag: a fault-profile name, resolved by Validate.
type Faults struct {
	// Profile is the named profile, nil when the flag is unset.
	Profile *faults.Profile
	// Name is the flag's value.
	Name string
}

// FaultsFlag registers -faults; its usage is usage followed by the
// profile names.
func FaultsFlag(usage string) *Faults { return faultsFlag(flag.CommandLine, usage) }

func faultsFlag(fs *flag.FlagSet, usage string) *Faults {
	f := &Faults{}
	fs.StringVar(&f.Name, "faults", "", usage+strings.Join(faults.Names(), "|"))
	return f
}

func (f *Faults) validate() error {
	if f.Name == "" {
		return nil
	}
	p, err := faults.ByName(f.Name)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	f.Profile = &p
	return nil
}

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
