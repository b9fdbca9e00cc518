// Package bufown checks the pooled-buffer rules whose violation serves
// one request's bytes to another (DESIGN §16):
//
//   - no buffer from bufpool.Get is Put twice, a deferred Put included:
//     the pool would hand the one array to two later Gets;
//   - no buffer is used after its Put: the next Get's owner writes it;
//   - no msg.Envelope is Released past its borrow: the Release that takes
//     the count to zero Puts the frame while a holder still reads it.
//
// The rest of bufpool's contract costs allocations, not bytes: a buffer
// never Put, or kept in a field, is the garbage collector's (Put is
// optional). Allocation pins beside the hot paths' benchmarks check that.
//
// The pass runs a forward dataflow analysis (internal/analysis/dataflow)
// over each function's CFG (internal/analysis/cfg). A cell stands for one
// Get site or one envelope borrow, and each local variable binds to the
// cells it may name. A buffer cell holds the facts some path reached —
// released, a Put deferred — and an envelope cell the reference counts it
// may hold, 0 to 3. Joins union them, so a Put on one branch makes a later
// Put a possible double Put. Function literals are analyzed on their own,
// with their free variables untracked; the enclosing function credits a
// closure's Retain and Release of a captured envelope where the closure is
// made, as if it ran once. Buffers held in struct fields are not tracked.
package bufown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc: "no pooled buffer is Put twice or used after its Put, and no " +
		"Envelope.Release goes past its borrow",
	Run: run,
}

// checkedPkgs are the package basenames that take pooled buffers.
var checkedPkgs = map[string]bool{
	"blockstore": true,
	"bufpool":    true,
	"msg":        true,
	"wire":       true,
	"rpcnet":     true,
	"client":     true,
	"cache":      true,
	"disk":       true,
}

func run(pass *analysis.Pass) error {
	if !checkedPkgs[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	c := &checker{pass: pass, info: pass.TypesInfo, served: map[*ast.FuncLit]bool{}}
	var funcs []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					funcs = append(funcs, n)
				}
			case *ast.FuncLit:
				funcs = append(funcs, n)
			case *ast.CallExpr:
				c.markServed(n)
			}
			return true
		})
	}
	for _, fn := range funcs {
		if err := c.check(fn); err != nil {
			return err
		}
	}
	return nil
}

// A cellID is the position of the Get, Recv or first use that made the
// cell, so every iteration of a loop maps onto the same cell.
type cellID token.Pos

// cell is one tracked buffer or envelope borrow.
type cell struct {
	env bool
	// bits: for a buffer, bReleased|bDeferPut; for an envelope, bit i set
	// means some path holds i references.
	bits uint8
}

const (
	bReleased uint8 = 1 << iota // returned to the pool
	bDeferPut                   // a deferred Put will return it
)

// state is the dataflow fact: the live cells and the cells each local
// variable may name.
type state struct {
	cells map[cellID]cell
	bind  map[*types.Var][]cellID
}

func (s state) Clone() dataflow.State {
	return state{cells: maps.Clone(s.cells), bind: maps.Clone(s.bind)}
}

func (s state) JoinInto(other dataflow.State) bool {
	o := other.(state)
	changed := false
	for id, oc := range o.cells {
		sc, ok := s.cells[id]
		if merged := sc.bits | oc.bits; !ok || merged != sc.bits {
			s.cells[id] = cell{env: oc.env, bits: merged}
			changed = true
		}
	}
	for v, ids := range o.bind {
		for _, id := range ids {
			if have := s.bind[v]; !slices.Contains(have, id) {
				// Clone states share binding slices: never append in place.
				s.bind[v] = append(have[:len(have):len(have)], id)
				changed = true
			}
		}
	}
	return changed
}

// shift moves every reference count of an envelope cell by d, dropping
// counts above 3 (the cell stops tracking those paths) and reporting
// whether some count went below zero.
func shift(bits uint8, d int) (out uint8, under bool) {
	for i := 0; i < 4; i++ {
		if bits&(1<<i) == 0 {
			continue
		}
		switch n := i + d; {
		case n < 0:
			under = true
		case n < 4:
			out |= 1 << n
		}
	}
	return out, under
}

// checker is the per-package context and the dataflow.Client of the
// function body being checked.
type checker struct {
	pass *analysis.Pass
	info *types.Info
	// served holds the function literals handed to a Serve as its deliver
	// callback (markServed).
	served map[*ast.FuncLit]bool
	// lo..hi is the checked function's extent: a variable declared outside
	// it (a closure's free variable) belongs to the enclosing function.
	lo, hi token.Pos
}

func (c *checker) check(fn ast.Node) error {
	st := state{cells: map[cellID]cell{}, bind: map[*types.Var][]cellID{}}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
		if c.served[fn] {
			// A Serve's deliver callback holds each envelope's borrow, as
			// a Recv's caller does.
			for _, name := range fn.Type.Params.List[0].Names {
				if v, _ := c.info.Defs[name].(*types.Var); v != nil {
					st.cells[cellID(v.Pos())] = cell{env: true, bits: 1 << 1}
					st.bind[v] = []cellID{cellID(v.Pos())}
				}
			}
		}
	}
	c.lo, c.hi = fn.Pos(), fn.End()
	g := cfg.New(body)
	res, err := dataflow.Forward(g, st, c)
	if err != nil {
		return fmt.Errorf("bufown: %v", err)
	}
	dataflow.Report(g, res, c)
	return nil
}

func (c *checker) Transfer(n ast.Node, s dataflow.State, report bool) {
	st := s.(state)
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n.Lhs, n.Rhs, st, report)
	case *ast.DeclStmt:
		gd, _ := n.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				c.assign(lhs, vs.Values, st, report)
			}
		}
	case *ast.ExprStmt:
		c.visit(n.X, st, report)
	case *ast.SendStmt:
		c.visit(n.Chan, st, report)
		c.visit(n.Value, st, report)
	case *ast.IncDecStmt:
		c.visit(n.X, st, report)
	case *ast.DeferStmt:
		c.call(n.Call, st, report, true)
	case *ast.GoStmt:
		c.call(n.Call, st, report, false)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.visit(r, st, report)
		}
	case *ast.RangeStmt:
		// The body's statements live in their own blocks.
		c.visit(n.X, st, report)
	case ast.Expr:
		// Branch conditions, switch tags, case expressions.
		c.visit(n, st, report)
	}
}

// assign evaluates the right-hand sides left to right, then binds each
// variable on the left to the cells its value may name. A call with
// several results binds its cells to the first.
func (c *checker) assign(lhss, rhss []ast.Expr, st state, report bool) {
	vals := make([][]cellID, len(rhss))
	for i, r := range rhss {
		vals[i] = c.visit(r, st, report)
	}
	for i, lhs := range lhss {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			c.visit(lhs, st, report) // a field, element or dereference
			continue
		}
		v, _ := c.info.Defs[id].(*types.Var)
		if v == nil {
			v, _ = c.info.Uses[id].(*types.Var)
		}
		if v == nil {
			continue
		}
		delete(st.bind, v)
		if i < len(vals) && len(vals[i]) > 0 && (isBuffer(v.Type()) || isEnvelope(v.Type())) {
			st.bind[v] = vals[i]
		}
	}
}

// visit checks the uses in an expression, applies its calls' effects, and
// returns the cells the expression's value may name.
func (c *checker) visit(e ast.Expr, st state, report bool) []cellID {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := c.info.Uses[e].(*types.Var)
		ids := st.bind[v]
		for _, id := range ids {
			if cl := st.cells[id]; !cl.env && cl.bits&bReleased != 0 {
				if report {
					c.pass.Reportf(e.Pos(), "use of pooled buffer after it was returned to the pool")
				}
				break
			}
		}
		return ids
	case *ast.ParenExpr:
		return c.visit(e.X, st, report)
	case *ast.StarExpr:
		return c.visit(e.X, st, report)
	case *ast.UnaryExpr:
		if ids := c.visit(e.X, st, report); e.Op == token.AND {
			return ids
		}
	case *ast.SliceExpr:
		// A subslice aliases the same array: the same cells.
		ids := c.visit(e.X, st, report)
		for _, x := range []ast.Expr{e.Low, e.High, e.Max} {
			if x != nil {
				c.visit(x, st, report)
			}
		}
		return ids
	case *ast.CallExpr:
		return c.call(e, st, report, false)
	case *ast.FuncLit:
		c.credit(e, st, report)
	case *ast.TypeAssertExpr:
		c.visit(e.X, st, report)
	case *ast.SelectorExpr:
		c.visit(e.X, st, report)
	case *ast.IndexExpr:
		c.visit(e.X, st, report)
		c.visit(e.Index, st, report)
	case *ast.BinaryExpr:
		c.visit(e.X, st, report)
		c.visit(e.Y, st, report)
	case *ast.KeyValueExpr:
		c.visit(e.Value, st, report)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			c.visit(el, st, report)
		}
	}
	return nil
}

// call applies one call's effects and returns the cells its result may
// name. A deferred call's Put is recorded as pending; its other effects
// are applied where the defer stands.
func (c *checker) call(call *ast.CallExpr, st state, report, deferred bool) []cellID {
	op := c.classify(call)
	if op == opPut {
		c.put(call.Args[0], call.Pos(), st, report, deferred)
		return nil
	}
	var recv []cellID
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		recv = c.visit(f.X, st, report)
		if len(recv) == 0 && (op == opRetain || op == opRelease || op == opBorrowed) {
			recv = c.firstTouch(f.X, st)
		}
	case *ast.FuncLit:
		if deferred {
			c.deferredPuts(f, st, report)
		}
		c.credit(f, st, report)
	default:
		c.visit(call.Fun, st, report)
	}
	var first []cellID
	for i, a := range call.Args {
		if ids := c.visit(a, st, report); i == 0 {
			first = ids
		}
	}
	id := cellID(call.Pos())
	switch op {
	case opAppend:
		return first // append's result aliases its first argument
	case opGet:
		st.cells[id] = cell{}
		return []cellID{id}
	case opRecv:
		st.cells[id] = cell{env: true, bits: 1 << 1}
		return []cellID{id}
	case opBorrowed, opRetain, opRelease:
		for _, rid := range recv {
			cl := st.cells[rid]
			if !cl.env {
				continue
			}
			switch op {
			case opBorrowed:
				cl.bits = 1 << 1
			case opRetain:
				cl.bits, _ = shift(cl.bits, +1)
			case opRelease:
				var under bool
				if cl.bits, under = shift(cl.bits, -1); under && report {
					c.pass.Reportf(call.Pos(), "Envelope.Release without a matching Retain or borrow")
				}
			}
			st.cells[rid] = cl
		}
	}
	return nil
}

// put records a Put of the buffer arg names (or a deferred Put of it).
func (c *checker) put(arg ast.Expr, pos token.Pos, st state, report, deferred bool) {
	twice := false
	for _, id := range st.bind[baseVar(c.info, arg)] {
		cl := st.cells[id]
		if cl.env {
			continue
		}
		twice = twice || cl.bits != 0
		if deferred {
			cl.bits |= bDeferPut
		} else {
			cl.bits = bReleased
		}
		st.cells[id] = cl
	}
	if twice && report {
		c.pass.Reportf(pos, "buffer may be returned to the pool twice")
	}
}

// deferredPuts records the Puts a deferred function literal makes of
// the buffers it captures.
func (c *checker) deferredPuts(lit *ast.FuncLit, st state, report bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.classify(call) == opPut {
			c.put(call.Args[0], call.Pos(), st, report, true)
		}
		return true
	})
}

// firstTouch gives an envelope variable of this function that no Recv,
// Serve or Borrowed has bound — a parameter, a copy — a cell holding no
// reference of its own: it may Retain, and Release what it Retained.
func (c *checker) firstTouch(x ast.Expr, st state) []cellID {
	v := baseVar(c.info, x)
	if v == nil || !isEnvelope(v.Type()) || v.Pos() < c.lo || v.Pos() > c.hi {
		return nil
	}
	id := cellID(v.Pos())
	if _, ok := st.cells[id]; !ok {
		st.cells[id] = cell{env: true, bits: 1 << 0}
	}
	st.bind[v] = []cellID{id}
	return st.bind[v]
}

// credit applies, where a function literal is made, the Retains minus the
// Releases it performs on each envelope it captures.
func (c *checker) credit(lit *ast.FuncLit, st state, report bool) {
	net := map[*types.Var]int{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch c.classify(call) {
		case opRetain:
			net[baseVar(c.info, sel.X)]++
		case opRelease:
			net[baseVar(c.info, sel.X)]--
		}
		return true
	})
	for v, d := range net {
		for _, id := range st.bind[v] {
			cl := st.cells[id]
			if !cl.env || d == 0 {
				continue
			}
			var under bool
			if cl.bits, under = shift(cl.bits, d); under && report {
				c.pass.Reportf(lit.Pos(), "Envelope.Release without a matching Retain or borrow")
			}
			st.cells[id] = cl
		}
	}
}

// op is what a callee does to the tracked cells.
type op uint8

const (
	opNone     op = iota
	opAppend      // the append builtin
	opGet         // bufpool.Get: a fresh buffer
	opPut         // bufpool.Put
	opRecv        // a Recv returning (*msg.Envelope, error): a fresh borrow
	opBorrowed    // Envelope.Borrowed: the receiver becomes a fresh borrow
	opRetain      // Envelope.Retain
	opRelease     // Envelope.Release
)

// classify matches the pool and envelope primitives by package basename
// and name — export data carries no comments, so the table is built in —
// and any method named Recv that returns (*msg.Envelope, error), which
// covers wire.Codec and rpcnet's codec interface without naming either.
func (c *checker) classify(call *ast.CallExpr) op {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			return opAppend
		}
	}
	fn := analysis.Callee(c.info, call)
	if fn == nil || fn.Pkg() == nil {
		return opNone
	}
	sig := fn.Type().(*types.Signature)
	switch pkg := analysis.PkgBase(fn.Pkg().Path()); {
	case pkg == "bufpool" && fn.Name() == "Get":
		return opGet
	case pkg == "bufpool" && fn.Name() == "Put" && sig.Params().Len() == 1:
		return opPut
	case fn.Name() == "Recv" && sig.Results().Len() == 2 && isEnvelope(sig.Results().At(0).Type()) &&
		types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type()):
		return opRecv
	case pkg == "msg" && sig.Recv() != nil && isEnvelope(sig.Recv().Type()):
		switch fn.Name() {
		case "Borrowed":
			return opBorrowed
		case "Retain":
			return opRetain
		case "Release":
			return opRelease
		}
	}
	return opNone
}

// markServed records the function literals call hands a method named
// Serve as its deliver callback — wire.Codec.Serve, matched as Recv is.
func (c *checker) markServed(call *ast.CallExpr) {
	if fn := analysis.Callee(c.info, call); fn == nil || fn.Name() != "Serve" {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		if sig := c.info.TypeOf(lit).(*types.Signature); sig.Params().Len() == 1 && isEnvelope(sig.Params().At(0).Type()) {
			c.served[lit] = true
		}
	}
}

// baseVar unwraps parens, slices and dereferences down to the root
// variable, or nil.
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

func isBuffer(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isEnvelope(t types.Type) bool {
	n := analysis.NamedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Name() == "Envelope" &&
		analysis.PkgBase(n.Obj().Pkg().Path()) == "msg"
}
