// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check, a
// Pass hands it one type-checked package, and Report delivers findings.
//
// The repository vendors no third-party code, so tanklint (cmd/tanklint)
// cannot build on x/tools. This package keeps the same shape —
// Analyzer{Name, Doc, Run}, Pass with Fset/Files/Pkg/TypesInfo — so the
// passes would port to the real framework by changing one import. A
// Pass never holds a _test.go file: tests legitimately use wall-clock
// deadlines and discard errors, and the invariants guard shipped code.
// The driver lives in internal/analysis/driver; the golden-test harness
// in internal/analysis/analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the check in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: what invariant the pass
	// protects and why (shown by `tanklint help`).
	Doc string
	// Run executes the check over one package. Findings go through
	// pass.Report; an error aborts the whole lint run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PkgBase returns the last element of an import path: the name the
// passes key their applicability on ("repro/internal/disk" → "disk"),
// which also makes testdata packages ("fixtures/disk") eligible.
func PkgBase(pkgPath string) string { return path.Base(pkgPath) }

// FileBase returns the basename of the file containing pos.
func (p *Pass) FileBase(pos token.Pos) string {
	return path.Base(p.Fset.Position(pos).Filename)
}

// Callee resolves the called function or method object of a call
// expression, or nil. It sees through parentheses but not through
// function values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// RecvNamed returns the named type of a method's receiver (pointers
// dereferenced), or nil for functions and methods on unnamed types.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return NamedOf(sig.Recv().Type())
}

// NamedOf unwraps pointers and returns the *types.Named beneath, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// ReturnsError reports whether a call's result includes an error
// (either the sole result or any element of a tuple).
func ReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(tv.Type) || isErrorSlice(tv.Type)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isErrorSlice reports []error results (blockstore's WriteV contract).
func isErrorSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isErrorType(s.Elem())
}
