package element

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported identifiers declared under internal/
// that no program calls yet, each with the reason it stays.
var exportAllowlist = map[string]string{
	// Observation accessors: tests read state that other code produces.
	"AckedCum":        "tests read the sender's cumulative acked bytes",
	"Autotune":        "tests read the receive buffer's autotuning state",
	"BreakerOpen":     "tests read the export queue's breaker",
	"DegradedMode":    "tests read the sanitizer's degraded mode",
	"DropProb":        "tests read PIE's drop probability",
	"LastPressure":    "tests read the governor's last pressure",
	"NumWaiters":      "tests read a condition's wait list",
	"QueueLen":        "tests read the link queue depth",
	"RcvNxt":          "tests read the receiver's sequence state",
	"SafeMode":        "tests read the minimizer's safe mode",
	"SafeModeEntries": "tests count the minimizer's safe-mode entries",
	"SealedWindows":   "tests count the stream's sealed windows",
	"SetDelay":        "tests change a link's delay mid-run",
	"Skip":            "tests hold a decimated log's skip count to the plain-slice rule",
	"SndBufCap":       "tests read the send buffer's capacity",
	"SndNxt":          "tests read the sender's sequence state",
	"Spans":           "tests and DIGESTS.json read a recorder's spans as one slice; the exporters stream them",
	"State":           "tests read BBR's state machine",
	"Ticks":           "tests read the governor's tick count",
	"Updates":         "tests count the minimizer's target updates",
	"FlagFIN":         "completes the TCP flag set that pkt tests round-trip",
	// Names an open ROADMAP item will call.
	"Reconcile": "ROADMAP item 6 reconciles the waterfall against drops",
	"Drops":     "ROADMAP items 6 and 11(d) read the recorder's drop count",
	// The closed-form models FINDINGS.md cites.
	"AutotuneOccupancy": "hypotheses/*/FINDINGS.md cites the twin model",
	"ReassemblyDelay":   "hypotheses/*/FINDINGS.md cites the twin model",
	"RetxWait":          "hypotheses/*/FINDINGS.md cites the twin model",
}

// interfaceMethod reports method names that satisfy standard interfaces
// (fmt.Stringer, error, sort.Interface, json.Marshaler, ...): their
// callers are the standard library.
func interfaceMethod(name string) bool {
	switch name {
	case "String", "Error", "Less", "Swap", "Len":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// TestEveryExportHasACaller fails when an exported func, method, type,
// const or var declared in a non-test file under internal/ is named in
// no non-test file of the module except at its own declaration. Such a
// name is a path no program runs; delete it, or allowlist it above with
// a reason. internal/testutil is exempt.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	uses := map[string]int{} // identifier -> occurrences in non-test files
	fset := token.NewFileSet()
	walkGoFiles(t, func(path string, src []byte) error {
		countIdents(fset, path, src, uses)
		if !strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "internal/testutil/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, name := range exportedNames(f) {
			decls = append(decls, decl{name.Name, fset.Position(name.Pos()).String()})
		}
		return nil
	})
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	var orphans []string
	for _, d := range decls {
		if uses[d.name] > declared[d.name] {
			continue
		}
		if _, ok := exportAllowlist[d.name]; ok {
			continue
		}
		orphans = append(orphans, d.pos+": "+d.name)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported names have no caller outside tests:\n\t%s", len(orphans), strings.Join(orphans, "\n\t"))
	}
	for name := range exportAllowlist {
		if declared[name] == 0 || uses[name] > declared[name] {
			t.Errorf("allowlisted %s is no longer declared or now has a caller; drop it from the list", name)
		}
	}
}

// traceImporters names the non-test files that may still import
// internal/trace, each with the ROADMAP item that moves it off the
// package; the package goes once the list is empty.
var traceImporters = map[string]string{
	"internal/exp/scenario.go": "item 7: FlowResult.GT's type changes once benchmark/ stops reading it",
	"benchmark/layers.go":      "item 1: the benchmark-only change",
}

// TestTraceImporters fails when a non-test file outside internal/trace
// imports it and is not listed in traceImporters, or when a listed file
// no longer imports it: the list only shrinks.
func TestTraceImporters(t *testing.T) {
	fset := token.NewFileSet()
	imports := map[string]bool{}
	walkGoFiles(t, func(path string, src []byte) error {
		if strings.HasPrefix(path, "internal/trace/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"element/internal/trace"` {
				imports[path] = true
			}
		}
		return nil
	})
	for path := range imports {
		if _, ok := traceImporters[path]; !ok {
			t.Errorf("%s imports internal/trace; build on the waterfall instead (ROADMAP item 7)", path)
		}
	}
	for path := range traceImporters {
		if !imports[path] {
			t.Errorf("%s no longer imports internal/trace; drop it from traceImporters", path)
		}
	}
}

// walkGoFiles calls fn with the slash-separated path and source of every
// non-test Go file in the module, skipping hidden and testdata
// directories.
func walkGoFiles(t *testing.T, fn func(path string, src []byte) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return fn(filepath.ToSlash(path), src)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportedNames returns the exported top-level names f declares, less
// standard interface methods.
func exportedNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || (d.Recv != nil && interfaceMethod(d.Name.Name)) {
				continue
			}
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, n)
						}
					}
				}
			}
		}
	}
	return out
}

// countIdents adds every identifier token in src to uses. Comments and
// strings are not identifiers, so a name only mentioned there has no
// caller.
func countIdents(fset *token.FileSet, path string, src []byte, uses map[string]int) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			uses[lit]++
		}
	}
}
