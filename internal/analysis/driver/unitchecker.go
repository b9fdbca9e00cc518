package driver

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Version is the tool identity `go vet` hashes into its build cache key
// (via -V=full). Bump it whenever an analyzer's behavior changes, or
// cached clean verdicts will mask new findings.
//
// 1.1.0: added the bufown flow-sensitive ownership pass.
// 1.2.0: ackdurable rule A4 (commit before the server's ctrl send) and
// A3 extended to package meta.
const Version = "tanklint-1.2.0"

// vetConfig mirrors the JSON cmd/go writes to <objdir>/vet.cfg for each
// package when invoked as `go vet -vettool=tanklint`.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

// Main is the shared entry point of cmd/tanklint. It speaks four
// protocols:
//
//	tanklint -V=full            → identity line for the go vet build cache
//	tanklint -flags             → JSON flag descriptions (none)
//	tanklint <file>.cfg         → one unit-checked package (go vet -vettool)
//	tanklint help [pass]        → pass docs and the tree's //lint:allow sites
//	tanklint [-json] [patterns] → standalone: load, analyze, print, exit 2
//
// It returns the process exit code.
func Main(analyzers []*analysis.Analyzer, args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			// Field layout is checked by cmd/go: "<name> version <ver>".
			fmt.Fprintf(stdout, "%s version %s\n", progName(), Version)
			return 0
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return unitCheck(args[0], analyzers, stderr)
		}
	}
	if len(args) > 0 && args[0] == "help" {
		return helpMain(analyzers, args[1:], stdout, stderr)
	}
	jsonOut := false
	patterns := args
	if len(patterns) > 0 && patterns[0] == "-json" {
		jsonOut = true
		patterns = patterns[1:]
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := Load(".", patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jsonOut {
		if err := WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// jsonDiag is the -json rendering of one finding. Machine consumers
// (CI annotation scripts, editors) key on this shape; the line format
// the GitHub problem matcher scrapes is the plain-text one.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON renders findings as a JSON array — always an array, never
// null, so `jq length` works on a clean run.
func WriteJSON(w io.Writer, diags []Diag) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}

func progName() string { return filepath.Base(os.Args[0]) }

// unitCheck analyzes the single package a vet.cfg describes.
func unitCheck(cfgFile string, analyzers []*analysis.Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "%s: parsing vet config: %v\n", progName(), err)
		return 1
	}
	// The vetx fact file must exist for cmd/go's cache bookkeeping even
	// though tanklint's passes exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("tanklint: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency-only visit: nothing to compute, nothing to report.
		return 0
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := check(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// cmd/go reports compile errors itself; duplicate noise helps
			// nobody (see golang.org/issue/18395).
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := RunPackage(fset, pkg, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
