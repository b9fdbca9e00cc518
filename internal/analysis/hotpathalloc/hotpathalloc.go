// Package hotpathalloc keeps the marked steady-state send/receive path
// allocation-free.
//
// The zero-copy wire codec (DESIGN §12) earns its numbers by never
// touching the garbage collector on a per-message basis: frame and page
// buffers come from internal/bufpool, metadata is encoded into
// pre-sized buffers by offset, and errors are sentinel values. That
// discipline is invisible to the compiler — one innocent `append` or
// `fmt.Errorf` in a codec primitive silently reintroduces a per-message
// allocation and the regression only shows up as a benchmark delta
// weeks later.
//
// The pass applies to functions whose doc comment carries the
// //tank:hotpath directive. Inside such a function it flags the
// allocating constructs:
//
//	make(...), new(...)            direct allocation
//	append(...)                    growth allocates; pre-size instead
//	[]T{...}, map[K]V{...}, &T{}   composite literals that escape
//	func(){...}                    closures (the func value allocates)
//	fmt.*                          formatting boxes every operand
//	string(b), []byte(s)           conversions copy
//
// Calls into the buffer pool (bufpool.Get/Put) are ordinary calls and
// are never flagged — the pool IS the sanctioned allocator. Calling an
// unmarked helper is likewise not flagged: the marker is a per-function
// promise, not a transitive one. Value-typed struct literals stay legal
// (they live on the stack). Exemptions use a visible
// //lint:allow hotpathalloc(reason) directive.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid allocating constructs (make, append, composite literals, closures, fmt, " +
		"string conversions) in //tank:hotpath-marked functions; hot-path buffers come from internal/bufpool",
	Run: run,
}

// isHotpath reports whether the function's doc group carries the
// //tank:hotpath directive.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "tank:hotpath" {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

const remedy = "in a //tank:hotpath function; take buffers from internal/bufpool, pre-size outside " +
	"the hot path, or annotate //lint:allow hotpathalloc(reason)"

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(), "closure allocates %s", remedy)
			return false // its body is a different function
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[e]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(e.Pos(), "slice literal allocates %s", remedy)
			case *types.Map:
				pass.Reportf(e.Pos(), "map literal allocates %s", remedy)
			}
			return true
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&T{} heap-allocates %s", remedy)
				}
			}
			return true
		case *ast.CallExpr:
			checkCall(pass, e)
			return true
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Builtins: make, new, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates %s", remedy)
			case "new":
				pass.Reportf(call.Pos(), "new allocates %s", remedy)
			case "append":
				pass.Reportf(call.Pos(), "append may grow (allocate) %s", remedy)
			}
			return
		}
	}
	// fmt.* calls: every operand is boxed into an interface.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s boxes its operands and allocates %s", sel.Sel.Name, remedy)
			return
		}
	}
	// Conversions between string and byte/rune slices copy.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	atv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	to, from := tv.Type, atv.Type
	switch {
	case isString(to) && isByteOrRuneSlice(from):
		pass.Reportf(call.Pos(), "string(bytes) conversion copies %s", remedy)
	case isByteOrRuneSlice(to) && isString(from):
		pass.Reportf(call.Pos(), "[]byte(string) conversion copies %s", remedy)
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
