// Package locksafety flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held, plus intraprocedurally-detectable
// double-locks and cross-function lock-order inversions.
//
// Paper property: the protocol's liveness timers (keep-alive every
// τ(1-δ), steal after τ(1+ε)) only mean what the proof says if the
// goroutines that service them are never parked behind a mutex whose
// holder is blocked on the network or the media. The node executors are
// deliberately lock-free for protocol state; the mutexes that remain
// (the transport's link table and each link's send queue, the stats
// registry, executor queues) are leaf locks that must only guard
// memory. Holding one across a channel operation, a dial, a blocking
// frame write, or a media fsync turns a slow peer into a stalled node —
// exactly the failure mode the lease machinery exists to bound.
//
// Scope: client, server, rpcnet, stats (by package-path base). The
// analysis is lexical and intraprocedural: a held-set is threaded down
// each function body, branches fork a copy, `go` statements and
// function literals start empty (they run on other goroutines or at
// other times). That cannot prove absence of deadlock — it machine-
// checks the discipline the code review would otherwise re-litigate.
//
// Rules:
//
//	L1  blocking op (chan send/recv outside select-with-default, net
//	    dial/listen, wire.Codec Send/WriteFrames/Recv/Serve, blockstore.Media I/O,
//	    (*os.File).Sync, WaitGroup.Wait, time.Sleep/sim.Sleep) while a
//	    mutex is held
//	L2  Lock/RLock of a mutex already held on the same expression
//	L3  lock-order inversion: some function takes A then B while
//	    another takes B then A (keys are Type.field, per package)
package locksafety

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the locksafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafety",
	Doc: "flag blocking operations, double-locks, and lock-order inversions " +
		"while a sync mutex is held in client/server/rpcnet/stats",
	Run: run,
}

var scopePkgs = map[string]bool{
	"client": true,
	"server": true,
	"rpcnet": true,
	"stats":  true,
}

// blockingFuncs are package-level functions that can block the caller.
var blockingFuncs = map[[2]string]bool{
	{"time", "Sleep"}:      true,
	{"sim", "Sleep"}:       true,
	{"net", "Dial"}:        true,
	{"net", "DialTimeout"}: true,
	{"net", "Listen"}:      true,
}

// blockingMethods are methods (by receiver type) that can block: network
// round-trips, frame send/receive on a socket, media I/O and fsync.
var blockingMethods = map[[3]string]bool{
	{"wire", "Codec", "Send"}:           true,
	{"wire", "Codec", "WriteFrames"}:    true,
	{"wire", "Codec", "Recv"}:           true,
	{"wire", "Codec", "Serve"}:          true,
	{"wire", "Codec", "SendHello"}:      true,
	{"wire", "Codec", "RecvHello"}:      true,
	{"net", "Conn", "Read"}:             true,
	{"net", "Conn", "Write"}:            true,
	{"blockstore", "Media", "Read"}:     true,
	{"blockstore", "Media", "Write"}:    true,
	{"blockstore", "Media", "WriteV"}:   true,
	{"blockstore", "Media", "SetFence"}: true,
	{"blockstore", "File", "Write"}:     true,
	{"blockstore", "File", "WriteV"}:    true,
	{"os", "File", "Sync"}:              true,
	{"sync", "WaitGroup", "Wait"}:       true,
}

// lockInfo describes one held mutex.
type lockInfo struct {
	kind    string // "Lock" or "RLock"
	typeKey string // Type.field key for ordering
	pos     token.Pos
}

type held map[string]*lockInfo // instance key ("t.mu") → info

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// edge is one observed acquisition order between two type-keyed locks.
type edge struct{ first, second string }

type scanner struct {
	pass  *analysis.Pass
	edges map[edge]token.Pos
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	s := &scanner{pass: pass, edges: make(map[edge]token.Pos)}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.scanStmts(fd.Body.List, make(held))
		}
	}
	// L3: report each inverted pair once, deterministically.
	var pairs []edge
	for e := range s.edges {
		if e.first < e.second {
			if _, ok := s.edges[edge{e.second, e.first}]; ok {
				pairs = append(pairs, e)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].first < pairs[j].first })
	for _, e := range pairs {
		pass.Reportf(s.edges[edge{e.second, e.first}],
			"lock-order inversion: %s is taken while holding %s here, but elsewhere %s is taken while holding %s — pick one order",
			e.first, e.second, e.second, e.first)
	}
	return nil
}

// scanStmts threads the held-set through a statement list in order.
func (s *scanner) scanStmts(stmts []ast.Stmt, h held) {
	for _, st := range stmts {
		s.scanStmt(st, h)
	}
}

func (s *scanner) scanStmt(st ast.Stmt, h held) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.scanExpr(st.X, h, false)
	case *ast.SendStmt:
		s.scanExpr(st.Chan, h, false)
		s.scanExpr(st.Value, h, false)
		s.blockingOp(st.Arrow, "channel send", h)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.scanExpr(e, h, false)
		}
		for _, e := range st.Lhs {
			s.scanExpr(e, h, false)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.scanExpr(e, h, false)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer x.mu.Unlock() pins the lock to function exit: keep it
		// held (everything after is genuinely under the lock) but make a
		// later explicit Unlock unnecessary. Other deferred calls run
		// after the locks here are gone; don't scan their bodies.
		if kind, key, _ := s.lockCall(st.Call); kind == "Unlock" || kind == "RUnlock" {
			_ = key // the lock stays held until return by definition
		}
	case *ast.GoStmt:
		// A new goroutine holds nothing.
		for _, arg := range st.Call.Args {
			s.scanExpr(arg, h, false)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.scanStmts(fl.Body.List, make(held))
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.scanExpr(e, h, false)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, h)
		}
		s.scanExpr(st.Cond, h, false)
		s.scanStmts(st.Body.List, h.clone())
		if st.Else != nil {
			s.scanStmt(st.Else, h.clone())
		}
	case *ast.BlockStmt:
		s.scanStmts(st.List, h)
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, h)
		}
		if st.Cond != nil {
			s.scanExpr(st.Cond, h, false)
		}
		s.scanStmts(st.Body.List, h.clone())
	case *ast.RangeStmt:
		s.scanExpr(st.X, h, false)
		s.scanStmts(st.Body.List, h.clone())
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, h)
		}
		if st.Tag != nil {
			s.scanExpr(st.Tag, h, false)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, h.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, h.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil && !hasDefault {
				// Without a default the select parks until a case fires.
				s.blockingOp(cc.Comm.Pos(), "select without default", h)
			}
			s.scanStmts(cc.Body, h.clone())
		}
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, h)
	}
}

// scanExpr walks an expression: lock/unlock calls mutate h, receives and
// blocking calls are checked against it. inSelect suppresses receive
// reports (the select statement handles them).
func (s *scanner) scanExpr(e ast.Expr, h held, inSelect bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		s.call(e, h)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW && !inSelect {
			s.blockingOp(e.OpPos, "channel receive", h)
		}
		s.scanExpr(e.X, h, inSelect)
	case *ast.BinaryExpr:
		s.scanExpr(e.X, h, inSelect)
		s.scanExpr(e.Y, h, inSelect)
	case *ast.ParenExpr:
		s.scanExpr(e.X, h, inSelect)
	case *ast.SelectorExpr:
		s.scanExpr(e.X, h, inSelect)
	case *ast.IndexExpr:
		s.scanExpr(e.X, h, inSelect)
		s.scanExpr(e.Index, h, inSelect)
	case *ast.FuncLit:
		// Runs at some other time, with locks we cannot see. Scan with an
		// empty held-set so its own locking is still checked.
		s.scanStmts(e.Body.List, make(held))
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.scanExpr(el, h, inSelect)
		}
	case *ast.KeyValueExpr:
		s.scanExpr(e.Value, h, inSelect)
	case *ast.StarExpr:
		s.scanExpr(e.X, h, inSelect)
	case *ast.TypeAssertExpr:
		s.scanExpr(e.X, h, inSelect)
	}
}

// call handles one call expression: mutex transitions, blocking checks,
// and recursion into arguments.
func (s *scanner) call(call *ast.CallExpr, h held) {
	for _, arg := range call.Args {
		s.scanExpr(arg, h, false)
	}
	if kind, key, typeKey := s.lockCall(call); kind != "" {
		switch kind {
		case "Lock", "RLock":
			if prev, ok := h[key]; ok && !(kind == "RLock" && prev.kind == "RLock") {
				s.pass.Reportf(call.Pos(),
					"%s of %s which is already held (acquired at %s): guaranteed self-deadlock",
					kind, key, s.pass.Fset.Position(prev.pos))
			}
			for _, prev := range h {
				if prev.typeKey != typeKey {
					if _, ok := s.edges[edge{prev.typeKey, typeKey}]; !ok {
						s.edges[edge{prev.typeKey, typeKey}] = call.Pos()
					}
				}
			}
			h[key] = &lockInfo{kind: kind, typeKey: typeKey, pos: call.Pos()}
		case "Unlock", "RUnlock":
			delete(h, key)
		}
		return
	}
	s.checkBlockingCall(call, h)
}

// lockCall classifies a call as a sync.Mutex/RWMutex transition. It
// returns the method kind, the instance key (source rendering of the
// receiver, e.g. "t.mu"), and the type key (e.g. "Transport.mu").
func (s *scanner) lockCall(call *ast.CallExpr) (kind, key, typeKey string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", ""
	}
	fn, _ := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", ""
	}
	recv := analysis.RecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
		return "", "", ""
	}
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", ""
	}
	return sel.Sel.Name, types.ExprString(sel.X), s.typeKey(sel.X)
}

// typeKey renders a mutex expression as Type.field so the same lock is
// named identically across functions ("t.mu" and "tr.mu" both become
// "Transport.mu").
func (s *scanner) typeKey(x ast.Expr) string {
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if tv, ok := s.pass.TypesInfo.Types[sel.X]; ok {
			if named := analysis.NamedOf(tv.Type); named != nil {
				return named.Obj().Name() + "." + sel.Sel.Name
			}
		}
	}
	return types.ExprString(x)
}

// checkBlockingCall reports curated blocking callees while locked.
func (s *scanner) checkBlockingCall(call *ast.CallExpr, h held) {
	fn := analysis.Callee(s.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkgBase := analysis.PkgBase(fn.Pkg().Path())
	if recv := analysis.RecvNamed(fn); recv != nil {
		recvPkg := pkgBase
		if recv.Obj().Pkg() != nil {
			recvPkg = analysis.PkgBase(recv.Obj().Pkg().Path())
		}
		if blockingMethods[[3]string{recvPkg, recv.Obj().Name(), fn.Name()}] {
			s.blockingOp(call.Pos(), fmt.Sprintf("call to (%s.%s).%s", recvPkg, recv.Obj().Name(), fn.Name()), h)
		}
		return
	}
	if blockingFuncs[[2]string{pkgBase, fn.Name()}] {
		s.blockingOp(call.Pos(), fmt.Sprintf("call to %s.%s", pkgBase, fn.Name()), h)
	}
}

// blockingOp reports op if any mutex is currently held.
func (s *scanner) blockingOp(pos token.Pos, op string, h held) {
	if len(h) == 0 {
		return
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	info := h[keys[0]]
	s.pass.Reportf(pos,
		"%s while %s is held (acquired at %s): a blocked peer stalls every goroutine contending for this mutex; release it first or hand off to a goroutine",
		op, keys[0], s.pass.Fset.Position(info.pos))
}
