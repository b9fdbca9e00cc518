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
// registry, executor queues, the fault injector's tables, the trace
// sinks) are leaf locks that must only guard memory. Holding one across
// a channel operation, a dial, a blocking frame write, or a media fsync
// turns a slow peer into a stalled node — exactly the failure mode the
// lease machinery exists to bound.
//
// Scope: client, server, rpcnet, stats, faultnet, trace (by
// package-path base). The analysis is intraprocedural and flow-sensitive:
// a forward dataflow pass (internal/analysis/dataflow) over each
// function's CFG tracks the set of mutexes that may be held, joined by
// union, so a lock taken on one branch counts as held after the join.
// A deferred Unlock keeps its mutex held until the function exits;
// function literals are analyzed on their own, starting with nothing
// held (they run on other goroutines or at other times), and only a
// defer's or go's arguments are evaluated in place. That cannot prove
// absence of deadlock — it machine-checks the discipline the code review
// would otherwise re-litigate.
//
// Rules:
//
//	L1  blocking op (chan send/recv outside select-with-default, net
//	    dial/listen, wire.Codec Send/WriteFrames/Recv/Serve, blockstore
//	    Media/File reads, writes and fences, (*os.File).Sync,
//	    WaitGroup.Wait, time.Sleep/sim.Sleep) while a mutex is held
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
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the locksafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafety",
	Doc: "flag blocking operations, double-locks, and lock-order inversions " +
		"while a sync mutex is held in client/server/rpcnet/stats/faultnet/trace",
	Run: run,
}

var scopePkgs = map[string]bool{
	"client":   true,
	"server":   true,
	"rpcnet":   true,
	"stats":    true,
	"faultnet": true,
	"trace":    true,
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
	{"wire", "Codec", "Send"}:             true,
	{"wire", "Codec", "WriteFrames"}:      true,
	{"wire", "Codec", "Recv"}:             true,
	{"wire", "Codec", "Serve"}:            true,
	{"wire", "Codec", "SendHello"}:        true,
	{"wire", "Codec", "RecvHello"}:        true,
	{"net", "Conn", "Read"}:               true,
	{"net", "Conn", "Write"}:              true,
	{"blockstore", "Media", "Read"}:       true,
	{"blockstore", "Media", "ReadV"}:      true,
	{"blockstore", "Media", "Write"}:      true,
	{"blockstore", "Media", "WriteV"}:     true,
	{"blockstore", "Media", "RaiseFence"}: true,
	{"blockstore", "File", "Read"}:        true,
	{"blockstore", "File", "ReadV"}:       true,
	{"blockstore", "File", "ReadInto"}:    true,
	{"blockstore", "File", "Write"}:       true,
	{"blockstore", "File", "WriteV"}:      true,
	{"blockstore", "File", "RaiseFence"}:  true,
	{"os", "File", "Sync"}:                true,
	{"sync", "WaitGroup", "Wait"}:         true,
}

// lockInfo describes one held mutex.
type lockInfo struct {
	kind    string // "Lock" or "RLock"
	typeKey string // Type.field key for ordering
	pos     token.Pos
}

// held is the dataflow state: the mutexes that may be held, by instance
// key ("t.mu").
type held map[string]*lockInfo

func (h held) Clone() dataflow.State {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// JoinInto unions other into h. A mutex write-locked on either side
// counts as write-locked, which keeps the join monotone.
func (h held) JoinInto(other dataflow.State) bool {
	changed := false
	for k, v := range other.(held) {
		if prev, ok := h[k]; !ok || prev.kind == "RLock" && v.kind == "Lock" {
			h[k] = v
			changed = true
		}
	}
	return changed
}

// edge is one observed acquisition order between two type-keyed locks.
type edge struct{ first, second string }

// checker is the per-package state and the dataflow.Client of every
// function body in it.
type checker struct {
	pass  *analysis.Pass
	edges map[edge]token.Pos
	// comms maps each select's communication statement to whether the
	// select has no default, i.e. parks until a case fires.
	comms map[ast.Node]bool
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	c := &checker{pass: pass, edges: make(map[edge]token.Pos), comms: make(map[ast.Node]bool)}
	var bodies []*ast.BlockStmt
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			case *ast.SelectStmt:
				hasDefault := false
				for _, cc := range n.Body.List {
					hasDefault = hasDefault || cc.(*ast.CommClause).Comm == nil
				}
				for _, cc := range n.Body.List {
					if comm := cc.(*ast.CommClause).Comm; comm != nil {
						c.comms[comm] = !hasDefault
					}
				}
			}
			return true
		})
	}
	for _, body := range bodies {
		g := cfg.New(body)
		res, err := dataflow.Forward(g, make(held), c)
		if err != nil {
			return fmt.Errorf("locksafety: %v", err)
		}
		dataflow.Report(g, res, c)
	}
	// L3: report each inverted pair once, deterministically.
	var pairs []edge
	for e := range c.edges {
		if e.first < e.second {
			if _, ok := c.edges[edge{e.second, e.first}]; ok {
				pairs = append(pairs, e)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].first < pairs[j].first })
	for _, e := range pairs {
		pass.Reportf(c.edges[edge{e.second, e.first}],
			"lock-order inversion: %s is taken while holding %s here, but elsewhere %s is taken while holding %s — pick one order",
			e.first, e.second, e.second, e.first)
	}
	return nil
}

// Transfer applies one CFG node. A defer or go evaluates only its
// arguments here, a range statement only its operand (the body has its
// own blocks). A select's communication parks only when the select has
// no default, and its channel operation is the select's, not its own.
func (c *checker) Transfer(n ast.Node, s dataflow.State, report bool) {
	h := s.(held)
	switch n := n.(type) {
	case *ast.DeferStmt:
		for _, arg := range n.Call.Args {
			c.eval(arg, h, report, false)
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			c.eval(arg, h, report, false)
		}
	case *ast.RangeStmt:
		c.eval(n.X, h, report, false)
	default:
		parks, inComm := c.comms[n]
		if parks {
			c.blockingOp(n.Pos(), "select without default", h, report)
		}
		c.eval(n, h, report, inComm)
	}
}

// eval walks what n evaluates in place: lock calls update h, channel
// operations (unless inComm) and blocking calls are checked against it.
// Function literals are analyzed on their own.
func (c *checker) eval(n ast.Node, h held, report, inComm bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !inComm {
				c.blockingOp(n.Arrow, "channel send", h, report)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm {
				c.blockingOp(n.OpPos, "channel receive", h, report)
			}
		case *ast.CallExpr:
			c.call(n, h, report)
		}
		return true
	})
}

// call handles one call expression: a mutex transition or a blocking
// check. Findings and lock-order edges are recorded only when report is
// set, from converged states.
func (c *checker) call(call *ast.CallExpr, h held, report bool) {
	kind, key, typeKey := c.lockCall(call)
	switch kind {
	case "Lock", "RLock":
		if report {
			if prev, ok := h[key]; ok && !(kind == "RLock" && prev.kind == "RLock") {
				c.pass.Reportf(call.Pos(),
					"%s of %s which is already held (acquired at %s): guaranteed self-deadlock",
					kind, key, c.pass.Fset.Position(prev.pos))
			}
			for _, prev := range h {
				if _, ok := c.edges[edge{prev.typeKey, typeKey}]; !ok && prev.typeKey != typeKey {
					c.edges[edge{prev.typeKey, typeKey}] = call.Pos()
				}
			}
		}
		h[key] = &lockInfo{kind: kind, typeKey: typeKey, pos: call.Pos()}
	case "Unlock", "RUnlock":
		delete(h, key)
	default:
		c.checkBlockingCall(call, h, report)
	}
}

// lockCall classifies a call as a sync.Mutex/RWMutex transition. It
// returns the method kind, the instance key (source rendering of the
// receiver, e.g. "t.mu"), and the type key (e.g. "Transport.mu").
func (c *checker) lockCall(call *ast.CallExpr) (kind, key, typeKey string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", ""
	}
	fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
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
	return sel.Sel.Name, types.ExprString(sel.X), c.typeKey(sel.X)
}

// typeKey renders a mutex expression as Type.field so the same lock is
// named identically across functions ("t.mu" and "tr.mu" both become
// "Transport.mu").
func (c *checker) typeKey(x ast.Expr) string {
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok {
			if named := analysis.NamedOf(tv.Type); named != nil {
				return named.Obj().Name() + "." + sel.Sel.Name
			}
		}
	}
	return types.ExprString(x)
}

// checkBlockingCall reports curated blocking callees while locked.
func (c *checker) checkBlockingCall(call *ast.CallExpr, h held, report bool) {
	fn := analysis.Callee(c.pass.TypesInfo, call)
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
			c.blockingOp(call.Pos(), fmt.Sprintf("call to (%s.%s).%s", recvPkg, recv.Obj().Name(), fn.Name()), h, report)
		}
		return
	}
	if blockingFuncs[[2]string{pkgBase, fn.Name()}] {
		c.blockingOp(call.Pos(), fmt.Sprintf("call to %s.%s", pkgBase, fn.Name()), h, report)
	}
}

// blockingOp reports op if any mutex may be held.
func (c *checker) blockingOp(pos token.Pos, op string, h held, report bool) {
	if !report || len(h) == 0 {
		return
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	info := h[keys[0]]
	c.pass.Reportf(pos,
		"%s while %s is held (acquired at %s): a blocked peer stalls every goroutine contending for this mutex; release it first or hand off to a goroutine",
		op, keys[0], c.pass.Fset.Position(info.pos))
}
