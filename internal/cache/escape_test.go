package cache_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/driver"
)

const cachePath = "repro/internal/cache"

// isPage reports whether t is *cache.Page.
func isPage(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == cachePath && n.Obj().Name() == "Page"
}

// holdsPage reports whether a value of type t can hold a *Page: t is
// one, or is built of one without naming another type (a named type is
// checked where it is declared).
func holdsPage(t types.Type) bool {
	if isPage(t) {
		return true
	}
	switch u := t.(type) {
	case *types.Pointer:
		return holdsPage(u.Elem())
	case *types.Slice:
		return holdsPage(u.Elem())
	case *types.Array:
		return holdsPage(u.Elem())
	case *types.Map:
		return holdsPage(u.Key()) || holdsPage(u.Elem())
	case *types.Chan:
		return holdsPage(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsPage(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Signature:
		return holdsPage(u.Params()) || holdsPage(u.Results())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if holdsPage(u.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// removes names the Cache methods that can take a page away, and so
// recycle its header.
var removes = map[string]bool{
	"Fill": true, "FillPrefetched": true, "Write": true, "MarkClean": true,
	"DropPagesFrom": true, "Drop": true, "InvalidateAll": true,
}

// cacheFunc returns the package-cache function or method call calls, or
// nil.
func cacheFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.Ident:
		id = f
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == cachePath {
		return fn
	}
	return nil
}

// allowedUse reports whether id, a *Page variable used under parent,
// only reads the page, compares it with nil, is assigned to, or hands it
// back to the cache.
func allowedUse(info *types.Info, parent ast.Node, id *ast.Ident) bool {
	switch n := parent.(type) {
	case *ast.SelectorExpr:
		return n.X == id
	case *ast.BinaryExpr:
		other := n.X
		if other == id {
			other = n.Y
		}
		return (n.Op == token.EQL || n.Op == token.NEQ) && info.Types[other].IsNil()
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if lhs == id {
				return true
			}
		}
	case *ast.CallExpr:
		return n.Fun != id && cacheFunc(info, n) != nil
	}
	return false
}

// TestNoPageOutlivesItsLookup is the static half of why a parked Page
// header is never read through a stale pointer (Page's doc; the dynamic
// half is tankdebug's poison). Outside this package, in the code the
// module ships:
//
//   - no type, field, package variable or signature holds a *Page, so a
//     page is a local of the function that looked it up;
//   - a *Page local is only read (a field or a method), compared with
//     nil, assigned, or handed back to the cache: never stored, passed
//     on, converted or returned;
//   - no function literal captures one, so none outlives the turn in a
//     callback;
//   - no *Page is used after a direct call, in the same function, of a
//     Cache method that can remove pages.
//
// Calls that remove pages further down the stack are not followed; the
// holders make none between the lookup and their last use.
func TestNoPageOutlivesItsLookup(t *testing.T) {
	pkgs, fset, err := driver.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	uses := 0
	for _, p := range pkgs {
		if p.PkgPath == cachePath {
			continue
		}
		info := p.Info
		for id, obj := range info.Defs {
			switch o := obj.(type) {
			case *types.TypeName:
				if holdsPage(o.Type().Underlying()) {
					t.Errorf("%v: type %s holds a *cache.Page", fset.Position(id.Pos()), o.Name())
				}
			case *types.Var:
				if (o.IsField() || o.Parent() == p.Types.Scope()) && holdsPage(o.Type()) {
					t.Errorf("%v: %s holds a *cache.Page", fset.Position(id.Pos()), o.Name())
				}
			case *types.Func:
				if holdsPage(o.Type()) {
					t.Errorf("%v: %s passes a *cache.Page in its signature", fset.Position(id.Pos()), o.Name())
				}
			}
		}
		type use struct {
			fn  ast.Node
			v   *types.Var
			pos token.Pos
		}
		var used []use
		removals := map[ast.Node][]token.Pos{}
		for _, f := range p.Files {
			var stack []ast.Node
			fnOf := func() ast.Node {
				for i := len(stack) - 1; i >= 0; i-- {
					switch stack[i].(type) {
					case *ast.FuncDecl, *ast.FuncLit:
						return stack[i]
					}
				}
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.FuncLit:
					if holdsPage(info.TypeOf(n)) {
						t.Errorf("%v: a function literal passes a *cache.Page", fset.Position(n.Pos()))
					}
				case *ast.CallExpr:
					if fn := cacheFunc(info, n); fn != nil && removes[fn.Name()] {
						removals[fnOf()] = append(removals[fnOf()], n.Pos())
					}
				case *ast.Ident:
					v, ok := info.Uses[n].(*types.Var)
					if !ok || v.IsField() || !isPage(v.Type()) {
						break
					}
					uses++
					fn := fnOf()
					if v.Pos() < fn.Pos() || v.Pos() > fn.End() {
						t.Errorf("%v: a function literal captures *cache.Page %s", fset.Position(n.Pos()), n.Name)
					}
					if !allowedUse(info, stack[len(stack)-2], n) {
						t.Errorf("%v: *cache.Page %s leaves its lookup", fset.Position(n.Pos()), n.Name)
					}
					used = append(used, use{fn, v, n.Pos()})
				}
				return true
			})
		}
		for _, u := range used {
			for _, r := range removals[u.fn] {
				if u.v.Pos() < r && r < u.pos {
					t.Errorf("%v: *cache.Page %s used after the cache call at %v, which can remove it",
						fset.Position(u.pos), u.v.Name(), fset.Position(r))
				}
			}
		}
	}
	if uses == 0 {
		t.Fatal("found no use of a *cache.Page outside the package: the check is vacuous")
	}
	t.Logf("%d uses of a *cache.Page outside the package checked", uses)
}
