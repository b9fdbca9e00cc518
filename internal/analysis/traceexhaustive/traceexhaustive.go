// Package traceexhaustive keeps the trace vocabulary total and the
// protocol's error paths observable.
//
// The trace bus is the evidence channel for every safety claim the
// repository makes (DESIGN §7): Theorem 3.1 is asserted from the event
// stream, the chaos and crash harnesses grep it, and EXPERIMENTS.md
// tabulates it. Two regressions silently rot that evidence:
//
//  1. A new enum constant (a trace.Type, a simnet.DropReason, a
//     msg.Errno) that never made it into the String()/name-table
//     mapping — JSONL streams then carry "Type(23)", and the
//     round-trip through UnmarshalJSON breaks for exactly the newest,
//     most interesting events.
//  2. A protocol-error path that stopped emitting its trace event —
//     the NACK still flows, the steal still fires, but the stream no
//     longer shows it, and every trace assertion downstream quietly
//     proves less than it did.
//
// Rules:
//
//	T1  in the trace, simnet, and msg packages: every package-level
//	    constant of an integer enum type that has a String() method
//	    must be referenced by a mapping — a switch case in one of the
//	    type's methods, or a keyed composite literal (the name-table
//	    idiom) — somewhere in the package
//	T2  configured protocol-error functions ((Server).nack,
//	    (Disk).mediaFailed) must emit a trace event lexically before
//	    every reply send and every non-empty return: the event is part
//	    of the error path's contract, not decoration
//	T3  configured cancellation functions ((Channel).CancelAll,
//	    (Client).cancelCalls) must emit a trace event in every
//	    callback they hand to a Cancel call, so that each request
//	    given up unanswered shows on the bus (trace.EvCancel)
package traceexhaustive

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the traceexhaustive pass.
var Analyzer = &analysis.Analyzer{
	Name: "traceexhaustive",
	Doc: "every trace/drop/errno enum constant must appear in its String()/name-table mapping, " +
		"and configured protocol-error functions must emit a trace event before acking or returning the error",
	Run: run,
}

// enumPkgs are the packages (by base) whose stringed enums must stay
// exhaustive.
var enumPkgs = map[string]bool{
	"trace":  true,
	"simnet": true,
	"msg":    true,
}

// emitFuncs maps "pkgBase.Recv.Method" to the protocol-error functions
// that must trace before they answer. The emit callee set is any method
// named emit, trace, or Emit.
var emitFuncs = map[string]bool{
	"server.Server.nack":    true,
	"disk.Disk.mediaFailed": true,
}

// cancelFuncs names, like emitFuncs, the functions that give up
// requests unanswered: each callback they hand to a Cancel call must
// emit.
var cancelFuncs = map[string]bool{
	"core.Channel.CancelAll":    true,
	"client.Client.cancelCalls": true,
}

func run(pass *analysis.Pass) error {
	base := analysis.PkgBase(pass.Pkg.Path())
	if enumPkgs[base] {
		checkEnums(pass)
	}
	checkEmitBeforeError(pass, base)
	return nil
}

// isEmit reports whether call calls a trace emit (a method or function
// named emit, trace or Emit).
func isEmit(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "emit", "trace", "Emit":
		return true
	}
	return false
}

// --- T1: enum mapping exhaustiveness ---------------------------------------

func checkEnums(pass *analysis.Pass) {
	// Collect candidate enum types: package-level named integer types
	// with a String() method declared in this package.
	enums := make(map[*types.TypeName][]*types.Const)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			continue
		}
		hasString := false
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == "String" {
				hasString = true
			}
		}
		if hasString {
			enums[tn] = nil
		}
	}
	if len(enums) == 0 {
		return
	}
	// Attach each package-level constant to its enum type.
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := enums[named.Obj()]; ok {
			enums[named.Obj()] = append(enums[named.Obj()], c)
		}
	}
	// Scan every file for mapping references: case clauses and
	// composite-literal keys resolve to constant uses.
	covered := make(map[*types.Const]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, e := range n.List {
					markConst(pass, e, covered)
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						markConst(pass, kv.Key, covered)
					}
				}
			}
			return true
		})
	}
	// An enum with at least two constants and no covered member has no
	// mapping at all — that is a different (worse) finding than one
	// missing entry, but the report reads the same per constant.
	var missing []*types.Const
	for _, consts := range enums {
		if len(consts) < 2 {
			continue // a lone sentinel (msg.None) is not an enum
		}
		for _, c := range consts {
			if !covered[c] {
				missing = append(missing, c)
			}
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Pos() < missing[j].Pos() })
	for _, c := range missing {
		pass.Reportf(c.Pos(),
			"enum constant %s.%s is not covered by any String()/name-table mapping: JSONL streams would render it as a raw number and UnmarshalJSON could not round-trip it",
			analysis.PkgBase(pass.Pkg.Path()), c.Name())
	}
}

// markConst records e if it resolves to a package-level constant.
func markConst(pass *analysis.Pass, e ast.Expr, covered map[*types.Const]bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return
	}
	if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
		covered[c] = true
	}
}

// --- T2: emit-before-error in configured functions -------------------------

func checkEmitBeforeError(pass *analysis.Pass, base string) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvNamed := analysis.NamedOf(pass.TypesInfo.Types[fd.Recv.List[0].Type].Type)
			if recvNamed == nil {
				continue
			}
			key := base + "." + recvNamed.Obj().Name() + "." + fd.Name.Name
			if emitFuncs[key] {
				checkFuncEmits(pass, fd, key)
			}
			if cancelFuncs[key] {
				checkCancelEmits(pass, fd, key)
			}
		}
	}
}

// checkFuncEmits verifies that a trace emit lexically precedes every
// send and every value-carrying return in fd.
func checkFuncEmits(pass *analysis.Pass, fd *ast.FuncDecl, key string) {
	var emits []token.Pos
	type errExit struct {
		pos  token.Pos
		what string
	}
	var exits []errExit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEmit(pass, n) {
				emits = append(emits, n.Pos())
			} else if fn := analysis.Callee(pass.TypesInfo, n); fn != nil && (fn.Name() == "send" || fn.Name() == "Send") {
				exits = append(exits, errExit{n.Pos(), "reply send"})
			}
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				exits = append(exits, errExit{n.Pos(), "error return"})
			}
		}
		return true
	})
	for _, exit := range exits {
		preceded := false
		for _, e := range emits {
			if e < exit.pos {
				preceded = true
				break
			}
		}
		if !preceded {
			pass.Reportf(exit.pos,
				"%s in %s without a preceding trace emit: protocol-error paths must be visible on the trace bus (the stream is the safety evidence, DESIGN §7)",
				exit.what, key)
		}
	}
}

// --- T3: every cancellation is traced ----------------------------------------

// checkCancelEmits verifies that every function literal fd hands to a
// call of a method named Cancel emits a trace event.
func checkCancelEmits(pass *analysis.Pass, fd *ast.FuncDecl, key string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn == nil || fn.Name() != "Cancel" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			emits := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && isEmit(pass, c) {
					emits = true
				}
				return !emits
			})
			if !emits {
				pass.Reportf(lit.Pos(),
					"cancellation callback in %s without a trace emit: every request given up unanswered must show on the trace bus (trace.EvCancel)",
					key)
			}
		}
		return true
	})
}
