// Package bufown is the flow-sensitive ownership checker for the
// pooled-buffer borrow contract: every buffer obtained from bufpool.Get
// must reach exactly one bufpool.Put or one sanctioned ownership
// transfer on every control-flow path, must never be used after it was
// returned to the pool, and msg.Envelope Retain/Release pairs must
// balance per handler path.
//
// The pass runs a forward abstract interpretation (internal/analysis/
// dataflow) over each function's CFG (internal/analysis/cfg). The
// abstract state tracks one cell per allocation site — a bitset over
// {owned, released, escaped, defer-put} for buffers, a clamped
// refcount delta for envelopes — and a binding from local variables to
// the cells they may name. Joins union the bitsets, so a Put on only
// one branch arm surfaces as {owned|released} at the join: the shape of
// a branch-dependent leak.
//
// Ownership transfers the checker cannot see from code alone are
// declared with //tank: annotations (see annot.go). What the checker
// deliberately does NOT model: buffers stored in struct fields (their
// lifetime is the enclosing object's — stores must be //tank:adopt
// annotated and the field's release audited by hand), and cross-
// goroutine happens-before (a closure that puts a captured buffer is
// trusted to run exactly once).
package bufown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc: "enforce the pooled-buffer ownership contract: every bufpool.Get " +
		"reaches exactly one Put or sanctioned //tank:owns transfer on every " +
		"path, no use after Put, and Envelope Retain/Release balance per path",
	Run: run,
}

// checkedPkgs are the package basenames that participate in the
// pooled-buffer contract.
var checkedPkgs = map[string]bool{
	"bufpool": true,
	"msg":     true,
	"wire":    true,
	"rpcnet":  true,
	"client":  true,
	"cache":   true,
	"disk":    true,
}

func run(pass *analysis.Pass) error {
	if !checkedPkgs[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	ctx := newCtx(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if err := ctx.checkBody(fd, fd.Body, fn); err != nil {
				return err
			}
			// Function literals are analyzed standalone as well: their
			// bodies are opaque to the enclosing function's CFG, and a
			// Get/Put bug inside a closure is as real as one outside.
			// Free variables are untracked there (the enclosing
			// analysis covers them via the capture scan).
			var inner []*ast.FuncLit
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					inner = append(inner, n)
				case *ast.CallExpr:
					ctx.markServed(n)
				}
				return true
			})
			for _, lit := range inner {
				if err := ctx.checkBody(lit, lit.Body, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkBody analyzes one function (or function literal) body. scope is
// the enclosing declaration or literal: variables declared outside it
// (a closure's free variables) belong to the enclosing function's
// analysis and are never materialized here.
func (c *ctx) checkBody(scope ast.Node, body *ast.BlockStmt, fn *types.Func) error {
	fc := &fclient{
		ctx:      c,
		scopeLo:  scope.Pos(),
		scopeHi:  scope.End(),
		reported: map[reportKey]bool{},
		regetAt:  map[cellID]bool{},
	}
	st := newState()
	if fn != nil {
		if spec := c.docOwns[fn]; spec != nil {
			fc.ownsResult = spec.result
			// An owned parameter is a buffer this function promised
			// (via //tank:owns) to consume: seed it owned so the exit
			// check enforces the promise on the callee side too.
			sig := fn.Type().(*types.Signature)
			for _, i := range spec.params {
				if i >= sig.Params().Len() {
					continue
				}
				v := sig.Params().At(i)
				if !isBufferType(v.Type()) {
					continue
				}
				id := cellID(v.Pos())
				st.cells[id] = &cell{kind: kindBuffer, bits: bOwned}
				st.bind[v] = []cellID{id}
			}
		}
	}
	if lit, ok := scope.(*ast.FuncLit); ok && c.served[lit] {
		// A Serve's deliver callback: its envelope parameter arrives as
		// an owned borrow, as a Recv's result does.
		for _, name := range lit.Type.Params.List[0].Names {
			if v, _ := c.info.Defs[name].(*types.Var); v != nil {
				id := cellID(v.Pos())
				st.cells[id] = &cell{kind: kindEnvelope, bits: 1 << 1}
				st.bind[v] = []cellID{id}
			}
		}
	}
	g := cfg.New(body)
	res, err := dataflow.Forward(g, st, fc)
	if err != nil {
		return fmt.Errorf("bufown: %v", err)
	}
	dataflow.Report(g, res, fc)
	fc.checkExit(res.In[g.Exit.Index])
	return nil
}

// fclient implements dataflow.Client for one function body.
type fclient struct {
	ctx        *ctx
	ownsResult bool
	// scopeLo..scopeHi is the analyzed declaration's extent: only
	// variables declared inside it may have cells materialized.
	scopeLo, scopeHi token.Pos
	// reported dedupes diagnostics within the reporting pass (one site
	// can be reached by several handler paths in Transfer).
	reported map[reportKey]bool
	// regetAt marks Get sites already reported for the loop re-Get
	// rule, so the exit leak check does not double-report them.
	regetAt map[cellID]bool
}

type reportKey struct {
	pos  token.Pos
	rule string
}

func (fc *fclient) reportOnce(report bool, pos token.Pos, rule, msg string) {
	if !report {
		return
	}
	k := reportKey{pos, rule}
	if fc.reported[k] {
		return
	}
	fc.reported[k] = true
	fc.ctx.pass.Reportf(pos, "%s", msg)
}

func (fc *fclient) Transfer(n ast.Node, s dataflow.State, report bool) {
	st := s.(*state)
	switch n := n.(type) {
	case *ast.AssignStmt:
		fc.assign(n, st, report)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			idents := make([]ast.Expr, len(vs.Names))
			for i, nm := range vs.Names {
				idents[i] = nm
			}
			fc.assignTo(idents, vs.Values, st, report)
		}
	case *ast.ExprStmt:
		fc.visit(n.X, st, report)
	case *ast.SendStmt:
		fc.visit(n.Chan, st, report)
		ids := fc.visit(n.Value, st, report)
		fc.escape(n.Value.Pos(), ids, st, report, "a channel send")
	case *ast.IncDecStmt:
		fc.visit(n.X, st, report)
	case *ast.DeferStmt:
		fc.deferStmt(n, st, report)
	case *ast.GoStmt:
		fc.goStmt(n, st, report)
	case *ast.ReturnStmt:
		fc.returnStmt(n, st, report)
	case *ast.RangeStmt:
		// Only the range expression: the body's statements live in
		// their own CFG blocks.
		fc.visit(n.X, st, report)
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		fc.visit(n, st, report)
	}
}

// visit processes an expression — use checks, call effects, closure
// captures — and returns the tracked cells the expression's value may
// name.
func (fc *fclient) visit(e ast.Expr, st *state, report bool) []cellID {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		v, _ := fc.ctx.info.Uses[e].(*types.Var)
		if v == nil {
			return nil
		}
		ids := st.bind[v]
		for _, id := range ids {
			if cl := st.cells[id]; cl != nil && cl.kind == kindBuffer && cl.bits&bReleased != 0 {
				fc.reportOnce(report, e.Pos(), "useafterput",
					"use of pooled buffer after it was returned to the pool")
			}
		}
		return ids
	case *ast.ParenExpr:
		return fc.visit(e.X, st, report)
	case *ast.StarExpr:
		return fc.visit(e.X, st, report)
	case *ast.TypeAssertExpr:
		return fc.visit(e.X, st, report)
	case *ast.SliceExpr:
		// A subslice aliases the same backing array: same cells.
		ids := fc.visit(e.X, st, report)
		fc.visit(e.Low, st, report)
		fc.visit(e.High, st, report)
		fc.visit(e.Max, st, report)
		return ids
	case *ast.UnaryExpr:
		ids := fc.visit(e.X, st, report)
		if e.Op == token.AND {
			return ids
		}
		return nil
	case *ast.BinaryExpr:
		fc.visit(e.X, st, report)
		fc.visit(e.Y, st, report)
		return nil
	case *ast.CallExpr:
		return fc.call(e, st, report)
	case *ast.FuncLit:
		fc.capture(e, st, report, captureOpts{})
		return nil
	case *ast.SelectorExpr:
		fc.visit(e.X, st, report)
		return nil // field reads are untracked
	case *ast.IndexExpr:
		fc.visit(e.X, st, report)
		fc.visit(e.Index, st, report)
		return nil
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			ids := fc.visit(val, st, report)
			// A buffer stored into a composite literal outlives this
			// expression's view of it: ownership must be settled.
			fc.escape(val.Pos(), ids, st, report, "a composite literal")
		}
		return nil
	default:
		return nil
	}
}

// escape settles the fate of owned buffers flowing into a place the
// checker cannot follow. A //tank:adopt annotation sanctions the
// transfer, //tank:alias declares the variable keeps ownership;
// anything else is reported. Either way the cell leaves the owned
// state, so one bug yields one report.
func (fc *fclient) escape(pos token.Pos, ids []cellID, st *state, report bool, what string) {
	for _, id := range ids {
		cl := st.cells[id]
		if cl == nil || cl.kind != kindBuffer || cl.bits&bOwned == 0 {
			continue
		}
		switch fc.ctx.sanction(pos) {
		case "alias":
			continue // ownership (and the Put obligation) stays put
		case "":
			fc.reportOnce(report, pos, "escape",
				"owned buffer escapes into "+what+" without //tank:adopt or //tank:alias")
		}
		cl.bits = (cl.bits &^ bOwned) | bEscaped
	}
}

func (fc *fclient) assign(n *ast.AssignStmt, st *state, report bool) {
	// Tuple-from-call: v, err := f(). The tracked cells attach to the
	// value variable, and the error variable becomes their guard: the
	// err != nil edge never owned the value.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			ids := fc.call(call, st, report)
			var errVar *types.Var
			for _, lhs := range n.Lhs {
				if v := fc.lhsVar(lhs); v != nil && isErrorType(v.Type()) {
					errVar = v
				}
			}
			if errVar != nil {
				for _, id := range ids {
					if cl := st.cells[id]; cl != nil {
						cl.guard = errVar
					}
				}
			}
			for _, lhs := range n.Lhs {
				v := fc.lhsVar(lhs)
				if v == nil || v == errVar {
					continue
				}
				if isBufferType(v.Type()) || isEnvelopeType(v.Type()) {
					st.rebind(v, ids)
				} else {
					st.rebind(v, nil)
				}
			}
			return
		}
	}
	fc.assignTo(n.Lhs, n.Rhs, st, report)
}

// assignTo handles parallel assignment/definition (and var declarations
// with values): RHS evaluated left to right, then each LHS bound.
func (fc *fclient) assignTo(lhss, rhss []ast.Expr, st *state, report bool) {
	cells := make([][]cellID, len(rhss))
	for i, r := range rhss {
		cells[i] = fc.visit(r, st, report)
	}
	for i, lhs := range lhss {
		var ids []cellID
		if i < len(cells) {
			ids = cells[i]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v := fc.lhsVar(id)
			if v == nil {
				continue
			}
			if isBufferType(v.Type()) || isEnvelopeType(v.Type()) {
				st.rebind(v, ids)
			} else {
				st.rebind(v, nil)
			}
			continue
		}
		// Compound lvalue (field, element, deref): uses inside it are
		// checked, and an owned buffer stored through it escapes.
		fc.visit(lhs, st, report)
		fc.escape(lhs.Pos(), ids, st, report, "a field or element")
	}
}

func (fc *fclient) lhsVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := fc.ctx.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := fc.ctx.info.Uses[id].(*types.Var)
	return v
}

// call applies one call's ownership effects and returns the cells its
// result may name.
func (fc *fclient) call(call *ast.CallExpr, st *state, report bool) []cellID {
	fn := analysis.Callee(fc.ctx.info, call)
	sum := fc.ctx.summary(fn)

	// Builtins: fn is nil; append's result aliases its first argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fc.ctx.info.Uses[id].(*types.Builtin); isBuiltin {
			var first []cellID
			for i, a := range call.Args {
				ids := fc.visit(a, st, report)
				if i == 0 {
					first = ids
				}
			}
			if id.Name == "append" {
				return first
			}
			return nil
		}
	}

	// Receiver / callee expression.
	var recvCells []cellID
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvExpr = sel.X
		recvCells = fc.visit(sel.X, st, report)
	} else {
		fc.visit(call.Fun, st, report)
	}

	// Pass 1: ownership transfers and pool releases, before any
	// closure-capture scan — a buffer handed to an owned parameter in
	// the same call must not also be flagged as a closure escape.
	handled := make([]bool, len(call.Args))
	for _, i := range sum.owns {
		if i >= len(call.Args) {
			continue
		}
		arg := call.Args[i]
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			// An owned closure parameter adopts every owned buffer it
			// captures.
			fc.capture(lit, st, report, captureOpts{owned: true})
		} else {
			for _, id := range fc.visit(arg, st, report) {
				if cl := st.cells[id]; cl != nil && cl.kind == kindBuffer {
					cl.bits = (cl.bits &^ bOwned) | bEscaped
				}
			}
		}
		handled[i] = true
	}
	for _, i := range sum.release {
		if i >= len(call.Args) {
			continue
		}
		for _, id := range fc.lookup(call.Args[i], st) {
			cl := st.cells[id]
			if cl == nil || cl.kind != kindBuffer {
				continue
			}
			if cl.bits&(bReleased|bDeferPut) != 0 {
				fc.reportOnce(report, call.Pos(), "doubleput",
					"buffer may be returned to the pool twice")
			}
			cl.bits = bReleased
			cl.guard = nil
		}
		handled[i] = true
	}

	// Pass 2: remaining arguments are borrows (checked for released
	// uses, closures scanned for captures) — except an envelope handed to
	// a deliver callback, whose borrow moves to the callee, as a return
	// moves a Recv's to its caller.
	deliver := fn == nil && isDeliverType(fc.ctx.info.TypeOf(call.Fun))
	for i, arg := range call.Args {
		if handled[i] {
			continue
		}
		for _, id := range fc.visit(arg, st, report) {
			if cl := st.cells[id]; deliver && cl != nil && cl.kind == kindEnvelope {
				st.kill(id)
			}
		}
	}

	// Envelope refcount effects on the receiver.
	if sum.retain || sum.releaseRef || sum.borrowed {
		if len(recvCells) == 0 && recvExpr != nil {
			// First touch of an untracked envelope (e.g. a parameter):
			// materialize a balanced cell so the delta is tracked from
			// here on.
			if v := baseVar(fc.ctx.info, recvExpr); v != nil && isEnvelopeType(v.Type()) &&
				v.Pos() >= fc.scopeLo && v.Pos() <= fc.scopeHi {
				id := cellID(v.Pos())
				st.get(id, kindEnvelope, 1<<0)
				st.rebind(v, []cellID{id})
				recvCells = []cellID{id}
			}
		}
		for _, id := range recvCells {
			cl := st.cells[id]
			if cl == nil || cl.kind != kindEnvelope {
				continue
			}
			switch {
			case sum.borrowed:
				cl.bits = 1 << 1 // fresh borrow: refs=1, caller must settle it
			case sum.retain:
				cl.bits = shiftDelta(cl.bits, +1)
			case sum.releaseRef:
				pre := cl.bits
				cl.bits = shiftDelta(cl.bits, -1)
				if cl.bits&eUnderflow != 0 && pre&eUnderflow == 0 {
					fc.reportOnce(report, call.Pos(), "underflow",
						"Envelope.Release without a matching Retain or borrow")
				}
			}
		}
	}

	// Sources: the result is a fresh owned cell keyed by the call site.
	switch {
	case sum.bufSource || (sum.ownsResult && resultHasBuffer(fn)):
		id := cellID(call.Pos())
		if cl, ok := st.cells[id]; ok && cl.kind == kindBuffer &&
			cl.bits&bOwned != 0 && cl.bits&bDeferPut == 0 {
			fc.reportOnce(report, call.Pos(), "reget",
				"buffer from a previous loop iteration may still be owned at this Get")
			if report {
				fc.regetAt[id] = true
			}
		}
		st.cells[id] = &cell{kind: kindBuffer, bits: bOwned}
		return []cellID{id}
	case sum.envSource:
		id := cellID(call.Pos())
		st.cells[id] = &cell{kind: kindEnvelope, bits: 1 << 1}
		return []cellID{id}
	}
	return nil
}

func resultHasBuffer(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isBufferType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// lookup resolves an expression to cells purely syntactically, with no
// use checks or call effects — for release arguments, where the generic
// released-use check would double-report alongside the double-put rule.
func (fc *fclient) lookup(e ast.Expr, st *state) []cellID {
	if v := baseVar(fc.ctx.info, e); v != nil {
		return st.bind[v]
	}
	return nil
}

// baseVar unwraps parens, slices, derefs, and index expressions down to
// the root identifier's variable, or nil.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

func (fc *fclient) deferStmt(n *ast.DeferStmt, st *state, report bool) {
	call := n.Call
	fn := analysis.Callee(fc.ctx.info, call)
	sum := fc.ctx.summary(fn)
	if len(sum.release) > 0 {
		// defer bufpool.Put(buf): the release is pending on every path
		// from here to return — the cell satisfies the exit check but a
		// further explicit Put is a double release.
		for _, i := range sum.release {
			if i >= len(call.Args) {
				continue
			}
			for _, id := range fc.lookup(call.Args[i], st) {
				cl := st.cells[id]
				if cl == nil || cl.kind != kindBuffer {
					continue
				}
				if cl.bits&(bReleased|bDeferPut) != 0 {
					fc.reportOnce(report, call.Pos(), "doubleput",
						"buffer may be returned to the pool twice")
				}
				cl.bits |= bDeferPut
			}
		}
		return
	}
	if sum.releaseRef {
		// defer env.Release(): credited at registration — it runs on
		// every path from here, like the deferred Put.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			for _, id := range fc.lookup(sel.X, st) {
				cl := st.cells[id]
				if cl == nil || cl.kind != kindEnvelope {
					continue
				}
				pre := cl.bits
				cl.bits = shiftDelta(cl.bits, -1)
				if cl.bits&eUnderflow != 0 && pre&eUnderflow == 0 {
					fc.reportOnce(report, call.Pos(), "underflow",
						"Envelope.Release without a matching Retain or borrow")
				}
			}
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		fc.capture(lit, st, report, captureOpts{deferred: true})
		return
	}
	fc.call(call, st, report)
}

func (fc *fclient) goStmt(n *ast.GoStmt, st *state, report bool) {
	call := n.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		fc.capture(lit, st, report, captureOpts{})
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		fc.visit(sel.X, st, report)
	}
	// An owned buffer crossing a goroutine boundary leaves this
	// function's control flow for good.
	for _, a := range call.Args {
		ids := fc.visit(a, st, report)
		fc.escape(a.Pos(), ids, st, report, "a goroutine")
	}
}

func (fc *fclient) returnStmt(n *ast.ReturnStmt, st *state, report bool) {
	for _, r := range n.Results {
		for _, id := range fc.visit(r, st, report) {
			cl := st.cells[id]
			if cl == nil {
				continue
			}
			switch cl.kind {
			case kindBuffer:
				if cl.bits&bOwned == 0 {
					continue
				}
				if !fc.ownsResult {
					fc.reportOnce(report, r.Pos(), "escape",
						"owned buffer returned without a //tank:owns result annotation")
				}
				cl.bits = (cl.bits &^ bOwned) | bEscaped
			case kindEnvelope:
				// Ownership of the borrow moves to the caller.
				st.kill(id)
			}
		}
	}
}

type captureOpts struct {
	// owned: the closure sits in a //tank:owns parameter position —
	// captured owned buffers transfer into it silently.
	owned bool
	// deferred: the closure runs at function exit — a Put inside it
	// counts as a deferred Put.
	deferred bool
}

// capture scans a function literal for tracked free variables and
// settles their cells: envelope refcount deltas inside the closure are
// credited at the creation site, and captured owned buffers must be
// transferred, put, or annotated.
func (fc *fclient) capture(lit *ast.FuncLit, st *state, report bool, opts captureOpts) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := fc.ctx.info.Uses[id].(*types.Var)
		if v == nil || seen[v] {
			return true
		}
		ids := st.bind[v]
		if len(ids) == 0 {
			return true
		}
		seen[v] = true
		for _, cid := range ids {
			cl := st.cells[cid]
			if cl == nil {
				continue
			}
			switch cl.kind {
			case kindEnvelope:
				// Net Retain-minus-Release performed by the closure,
				// credited here: the closure runs exactly once (Submit
				// queues, withService defers) — a documented limit.
				net := fc.closureNetDelta(lit.Body, v)
				if net == 0 {
					continue
				}
				pre := cl.bits
				cl.bits = shiftDelta(cl.bits, net)
				if cl.bits&eUnderflow != 0 && pre&eUnderflow == 0 {
					fc.reportOnce(report, lit.Pos(), "underflow",
						"closure releases Envelope more times than were retained")
				}
			case kindBuffer:
				if cl.bits&bOwned == 0 {
					continue
				}
				switch {
				case opts.owned:
					cl.bits = (cl.bits &^ bOwned) | bEscaped
				case fc.closurePuts(lit.Body, v):
					if opts.deferred {
						cl.bits |= bDeferPut
					} else {
						// The closure carries the Put: ownership moves
						// into it (wire.Recv's free-closure shape).
						cl.bits = (cl.bits &^ bOwned) | bEscaped
					}
				default:
					fc.escape(lit.Pos(), []cellID{cid}, st, report, "a closure")
				}
			}
		}
		return true
	})
}

// closureNetDelta counts Retain minus Release calls on v inside body.
func (fc *fclient) closureNetDelta(body *ast.BlockStmt, v *types.Var) int {
	net := 0
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || baseVar(fc.ctx.info, sel.X) != v {
			return true
		}
		sum := fc.ctx.summary(analysis.Callee(fc.ctx.info, call))
		if sum.retain {
			net++
		}
		if sum.releaseRef {
			net--
		}
		return true
	})
	return net
}

// closurePuts reports whether body contains a pool release of v.
func (fc *fclient) closurePuts(body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sum := fc.ctx.summary(analysis.Callee(fc.ctx.info, call))
		for _, i := range sum.release {
			if i < len(call.Args) && baseVar(fc.ctx.info, call.Args[i]) == v {
				found = true
			}
		}
		return true
	})
	return found
}

// FlowEdge refines cells guarded by an error variable across
// `err != nil` / `err == nil` branches: on the error edge the guarded
// value was never owned (the source failed), so its cell is dropped; on
// the nil edge the guard is discharged.
func (fc *fclient) FlowEdge(from *cfg.Block, si int, to *cfg.Block, s dataflow.State) dataflow.State {
	st := s.(*state)
	v, op := errNilCond(fc.ctx.info, from.Cond)
	if v == nil {
		return st
	}
	errNonNil := (op == token.NEQ && si == 0) || (op == token.EQL && si == 1)
	for id, cl := range st.cells {
		if cl.guard != v {
			continue
		}
		if errNonNil {
			st.kill(id)
		} else {
			cl.guard = nil
		}
	}
	return st
}

// errNilCond matches `e != nil` / `e == nil` where e is an error
// variable, returning the variable and the operator.
func errNilCond(info *types.Info, cond ast.Expr) (*types.Var, token.Token) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, token.ILLEGAL
	}
	test := func(ve, ne ast.Expr) *types.Var {
		id, ok := ast.Unparen(ve).(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || !isErrorType(v.Type()) {
			return nil
		}
		if tv, ok := info.Types[ne]; !ok || !tv.IsNil() {
			return nil
		}
		return v
	}
	if v := test(be.X, be.Y); v != nil {
		return v, be.Op
	}
	if v := test(be.Y, be.X); v != nil {
		return v, be.Op
	}
	return nil, token.ILLEGAL
}

// checkExit reports per-site obligations against the converged exit
// state: buffers still owned on some normal-return path leak; envelope
// deltas other than zero are unbalanced.
func (fc *fclient) checkExit(in dataflow.State) {
	if in == nil {
		return // no normal return (infinite loop or all paths panic)
	}
	st := in.(*state)
	for id, cl := range st.cells {
		switch cl.kind {
		case kindBuffer:
			if cl.bits&bOwned != 0 && cl.bits&bDeferPut == 0 && !fc.regetAt[id] {
				fc.ctx.pass.Reportf(token.Pos(id),
					"pooled buffer is not released on every path (missing bufpool.Put, defer Put, or a sanctioned //tank:owns transfer)")
			}
		case kindEnvelope:
			if cl.bits&eDeltaMask&^(1<<0) != 0 {
				fc.ctx.pass.Reportf(token.Pos(id),
					"Envelope retain/borrow is not balanced by a Release on every path")
			}
		}
	}
}
