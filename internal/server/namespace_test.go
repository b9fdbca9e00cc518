package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// uncovered are the store's mutators that change nothing a directory lock
// covers — counters and the handoff ledgers — and so may be called
// anywhere.
var uncovered = map[string]bool{
	"NextEpoch": true, "SetAutoParents": true,
	"BeginExport": true, "AbortExport": true, "RecordImport": true,
}

// storeMutators lists the exported methods of meta.Store that log a
// journal record, and those that call one: everything that changes the
// store.
func storeMutators(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("..", "meta"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := make(map[string]map[string]bool) // method → what it calls on its receiver
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok || star.X.(*ast.Ident).Name != "Store" {
					continue
				}
				called := make(map[string]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							called[sel.Sel.Name] = true
						}
					}
					return true
				})
				calls[fd.Name.Name] = called
			}
		}
	}
	mutators := make(map[string]bool)
	for name, called := range calls {
		if called["logOp"] && ast.IsExported(name) {
			mutators[name] = true
		}
	}
	for name, called := range calls {
		for m := range mutators {
			if called[m] && ast.IsExported(name) {
				mutators[name] = true
			}
		}
	}
	return mutators
}

// TestMutatorsRunUnderRevoke: every call this package makes to a metadata
// mutator that changes something a directory lock covers sits inside a
// change's apply method, or the change function handed to mutateAttr,
// which an apply runs; and apply itself is called only by mutate, once the
// locks are back, and by a handler that direct has just told there is
// nobody to take them from. A handler that reached the store any other way
// would change the namespace under somebody's cache.
func TestMutatorsRunUnderRevoke(t *testing.T) {
	mutators := storeMutators(t)
	for _, want := range []string{"Create", "Unlink", "Rename", "SetSize", "Touch", "AllocBlocks",
		"GrantBlocks", "Truncate", "CompleteExport", "Install"} {
		if !mutators[want] {
			t.Fatalf("the scan of internal/meta did not find mutator %s (found %v)", want, mutators)
		}
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked, applies := 0, 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "apply" && len(call.Args) == 0 {
					applies++
				}
				if ok && sel.Sel.Name == "apply" && len(call.Args) == 0 && !afterRevoke(stack) {
					t.Errorf("%s: apply is called outside mutate and not under `if s.direct(...)`",
						fset.Position(call.Pos()))
				}
				if !ok || !mutators[sel.Sel.Name] || uncovered[sel.Sel.Name] {
					return true
				}
				if recv, ok := sel.X.(*ast.SelectorExpr); !ok || recv.Sel.Name != "store" {
					return true
				}
				checked++
				if !underRevoke(stack) {
					t.Errorf("%s: store.%s is called outside a mutation's apply",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if checked < 10 || applies < 7 {
		t.Fatalf("only %d mutator calls and %d calls of apply found: the scan is not seeing the handlers", checked, applies)
	}
}

// afterRevoke reports whether the innermost node of stack, a call of a
// change's apply, is where one may be: in mutate, which has taken the
// locks, or in the body of an `if s.direct(...)`, which has found nobody
// to take them from.
func afterRevoke(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Name.Name == "mutate"
		case *ast.IfStmt:
			if call, ok := n.Cond.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "direct" {
					return true
				}
			}
		}
	}
	return false
}

// underRevoke reports whether the innermost node of stack lies inside a
// method named apply or a function literal handed to mutateAttr.
func underRevoke(stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Recv != nil && n.Name.Name == "apply"
		case *ast.FuncLit:
			if call, ok := stack[i-1].(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "mutateAttr" {
					return true
				}
			}
		}
	}
	return false
}
