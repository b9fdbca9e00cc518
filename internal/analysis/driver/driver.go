// Package driver runs tanklint's analyzers: Load resolves package
// patterns with `go list -json -deps -export`, type-checks each target
// package's GoFiles (never its _test.go files) from source against the
// compiler's export data, and Run executes every analyzer, applying
// //lint:allow suppression (see internal/analysis) and reporting
// malformed directives under the pseudo-analyzer "directive".
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Diag is one rendered finding.
type Diag struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Main is the entry point of cmd/tanklint:
//
//	tanklint help [pass]  → pass docs and the tree's //lint:allow sites
//	tanklint [patterns]   → load, analyze, print; exit 2 on findings
//
// It returns the process exit code.
func Main(analyzers []*analysis.Analyzer, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "help" {
		return helpMain(analyzers, args[1:], stdout, stderr)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, fset, err := Load(".", args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// Load resolves patterns in dir and returns the matched (non-dependency)
// packages, parsed and type-checked. Dependencies — standard library and
// module-internal alike — are consumed from compiler export data, which
// `go list -export` builds as needed, so loading N packages costs N
// source type-checks, not N².
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	args := append([]string{"list", "-e", "-json", "-deps", "-export", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var pkgs []*Package
	for _, p := range targets {
		pkg, err := check(fset, imp, p)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, fset, nil
}

// check parses and type-checks one listed package from its GoFiles.
func check(fset *token.FileSet, imp types.Importer, p *listedPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{PkgPath: p.ImportPath, Files: files, Types: tpkg, Info: info}, nil
}

// Run executes every analyzer over every package, applies //lint:allow
// suppression, and returns the surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*analysis.Analyzer) ([]Diag, error) {
	var out []Diag
	for _, pkg := range pkgs {
		dirs, malformed := analysis.PackageDirectives(fset, pkg.Files)
		for _, d := range malformed {
			out = append(out, Diag{Position: fset.Position(d.Pos), Analyzer: "directive", Message: d.Message})
		}
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range analysis.Suppress(fset, a.Name, diags, dirs) {
				out = append(out, Diag{Position: fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
