package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// repoRoot walks up from the test's working directory to the module
// root (the directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRepoClean runs the full tanklint suite in-process over every
// package in the module and requires zero findings: the shipped tree
// must satisfy its own invariants, with every exemption carried by a
// visible, reasoned //lint:allow directive.
func TestRepoClean(t *testing.T) {
	root := repoRoot(t)
	pkgs, fset, err := driver.Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := driver.Run(fset, pkgs, Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDirectiveBudget pins the exemption surface of the shipped tree,
// per pass and exactly: growing it means editing this map in the same
// diff that adds the directive, so every new exemption is a visible,
// reviewed decision. Fixtures under testdata exist to be suppressed and
// do not count. Every directive must also name a pass that actually
// exists — an allow for a misspelled or renamed pass suppresses
// nothing and would otherwise rot silently.
func TestDirectiveBudget(t *testing.T) {
	root := repoRoot(t)
	// The complete, intended exemption surface. A pass absent from this
	// map has a budget of zero.
	want := map[string]int{
		"clockhygiene": 1, // (*File).sync fsync latency stamp, internal/blockstore/file.go
	}
	dirs, err := driver.TreeAllows(root, "")
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	got := make(map[string]int)
	var sites []string
	for _, d := range dirs {
		got[d.Analyzer]++
		rel, _ := filepath.Rel(root, d.File)
		sites = append(sites, fmt.Sprintf("%s:%d: lint:allow %s(%s)", rel, d.FromLine, d.Analyzer, d.Reason))
		if d.Reason == "" {
			t.Errorf("directive without a reason: %s:%d", rel, d.FromLine)
		}
	}
	fset := token.NewFileSet()
	for _, diag := range analysis.UnknownPasses(dirs, known) {
		t.Errorf("%s (at %v)", diag.Message, fset.Position(diag.Pos))
	}
	for pass, n := range got {
		if n != want[pass] {
			t.Errorf("pass %s: %d lint:allow directives in the shipped tree, budget is exactly %d:\n  %s",
				pass, n, want[pass], strings.Join(sites, "\n  "))
		}
	}
	for pass, n := range want {
		if got[pass] != n {
			t.Errorf("pass %s: budget expects exactly %d directives, tree has %d (stale budget entry?)",
				pass, n, got[pass])
		}
	}
}

// TestFixtureAllowsExcluded proves the budget's testdata exclusion is
// load-bearing: the analysistest fixtures do contain //lint:allow
// directives (they exercise suppression), and none of them reach the
// budget scan.
func TestFixtureAllowsExcluded(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	fixtures := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		if !strings.Contains(path, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		dirs, _ := analysis.PackageDirectives(fset, []*ast.File{f})
		fixtures += len(dirs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixtures == 0 {
		t.Fatal("expected at least one //lint:allow inside testdata fixtures (suppression coverage)")
	}
	budget, err := driver.TreeAllows(root, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range budget {
		if strings.Contains(d.File, "testdata") {
			t.Errorf("budget scan leaked a fixture directive: %s:%d", d.File, d.FromLine)
		}
	}
}

// TestHelpListsAllows: `tanklint help <pass>` prints the pass doc and
// the shipped tree's //lint:allow sites for that pass with file, line,
// and reason — the audit view of the exemption surface.
func TestHelpListsAllows(t *testing.T) {
	var out, errOut strings.Builder
	if code := driver.Main(Analyzers, []string{"help", "clockhygiene"}, &out, &errOut); code != 0 {
		t.Fatalf("help clockhygiene: exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, wantSub := range []string{
		"clockhygiene:",
		"internal/blockstore/durable.go:",
		"fsync latency",
	} {
		if !strings.Contains(out.String(), wantSub) {
			t.Errorf("help clockhygiene output missing %q:\n%s", wantSub, out.String())
		}
	}
	out.Reset()
	if code := driver.Main(Analyzers, []string{"help", "bufown"}, &out, &errOut); code != 0 {
		t.Fatalf("help bufown: exit %d", code)
	}
	if !strings.Contains(out.String(), "No //lint:allow bufown exemptions") {
		t.Errorf("help bufown should report an empty exemption surface:\n%s", out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := driver.Main(Analyzers, []string{"help", "nosuchpass"}, &out, &errOut); code != 1 {
		t.Fatalf("help nosuchpass: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown pass") || !strings.Contains(errOut.String(), "bufown") {
		t.Errorf("unknown-pass error should name the known passes:\n%s", errOut.String())
	}
}
