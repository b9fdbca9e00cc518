// Package ackdurable machine-checks the ack-implies-durable contract in
// the disk and blockstore packages, its metadata analogue, persist-
// before-send, in the server package, and that the tree reaches stable
// storage through one fsync site.
//
// Paper property (§4, flush-before-expiry): a client counts a dirty
// page as safe the moment the disk's DiskWriteRes arrives, and the
// server lifts a fence the moment FenceRes arrives. Theorem 3.1's
// "acknowledged writes survive" therefore terminates at two code
// facts: (1) the reply is only sent after the corresponding
// Media.Write/WriteV/SetFence returned, with its error inspected, and
// (2) every fsync — of the file-backed media, of its fence journal, of
// the metadata journal and snapshot, of the directories their names
// live in — flows through the one instrumented, NoSync-gated function,
// blockstore's (*Syncer).fsync. Either fact is a one-line diff to
// destroy silently; this pass makes such a diff a build failure.
//
// Rules (disk and blockstore packages):
//
//	A1  a call whose result includes an error (or []error, the WriteV
//	    contract) used as a bare statement discards that error; handle
//	    it, or assign to _ with a reasoned comment (the explicit form
//	    is allowed, the silent form is not) — this is the errcheck
//	    sweep for Close/Sync/Remove and every media call
//	A2  a function in package disk that sends a DiskWriteRes,
//	    DiskWriteVRes, or FenceRes reply must contain a durable media
//	    call (Write/WriteV/SetFence) whose error is consumed; an ACK
//	    with no durability point, or one whose media error goes to _,
//	    is flagged at the send site
//
// Rule for every package:
//
//	A3  (*os.File).Sync may only be called inside blockstore's
//	    (*Syncer).fsync — anywhere else bypasses the fsync
//	    instrumentation and the NoSync gate, and a file or directory
//	    install written by hand can forget the directory fsync that
//	    Syncer.Install does not
//
// The metadata server makes the matching promise for its own storage
// (§1.1, DESIGN §15): a mutation a message acknowledges — a Reply to a
// client, a ShardMigrateRes to a peer authority — is in the redo journal
// before the message leaves. Every control message leaves through one
// function, the one that calls the Server's ctrl sender, so:
//
//	A4  a function in package server that calls the ctrl sender field
//	    must first call the metadata store's Commit and consume its
//	    error; a send with no commit before it, or one whose commit
//	    error goes to _, is flagged at the send site
package ackdurable

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ackdurable pass.
var Analyzer = &analysis.Analyzer{
	Name: "ackdurable",
	Doc: "enforce ack-implies-durable in disk/blockstore: no discarded media/fsync errors, " +
		"no write/fence acknowledgment without a checked durable media call; " +
		"persist-before-send in server: no control message without a checked " +
		"metadata journal commit before it; and in every package, " +
		"no fsync outside blockstore's (*Syncer).fsync",
	Run: run,
}

// ackReplies are the message types whose transmission IS the protocol's
// durability promise.
var ackReplies = map[string]bool{
	"DiskWriteRes":  true,
	"DiskWriteVRes": true,
	"FenceRes":      true,
}

// durableMethods are the Media operations that establish durability.
var durableMethods = map[string]bool{
	"Write":    true,
	"WriteV":   true,
	"SetFence": true,
}

func run(pass *analysis.Pass) error {
	base := analysis.PkgBase(pass.Pkg.Path())
	for _, file := range pass.Files {
		checkSyncSite(pass, file)
		switch base {
		case "disk":
			checkDiscardedErrors(pass, file)
			checkAckFunctions(pass, file)
		case "blockstore":
			checkDiscardedErrors(pass, file)
		case "server":
			checkCommitBeforeSend(pass, file)
		}
	}
	return nil
}

// checkDiscardedErrors implements A1: error results may not be dropped
// by using the call as a statement (plain or deferred).
func checkDiscardedErrors(pass *analysis.Pass, file *ast.File) {
	report := func(call *ast.CallExpr) {
		if !analysis.ReturnsError(pass.TypesInfo, call) {
			return
		}
		name := types.ExprString(call.Fun)
		pass.Reportf(call.Pos(),
			"error result of %s is silently discarded: on the ack-implies-durable path every media, fsync, and close error must be handled or explicitly assigned to _ with a reason",
			name)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				report(call)
				// The arguments may still contain interesting calls, but a
				// nested call's error flows into the outer call: only the
				// outermost statement-position call discards.
				return false
			}
		case *ast.DeferStmt:
			report(n.Call)
			return false
		case *ast.GoStmt:
			report(n.Call)
			return false
		}
		return true
	})
}

// checkAckFunctions implements A2 over each top-level function in the
// disk package.
func checkAckFunctions(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var ackSends []*ast.CallExpr // send(...) calls carrying an ack reply
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && sendsAckReply(pass, call) {
				ackSends = append(ackSends, call)
			}
			return true
		})
		durableChecked, durableDiscarded := errorUse(fd.Body, func(call *ast.CallExpr) bool {
			return isDurableMediaCall(pass, call)
		})
		for _, send := range ackSends {
			switch {
			case durableChecked != nil:
			case durableDiscarded != nil:
				pass.Reportf(send.Pos(),
					"write/fence reply sent but the media call at %s discards its error: the acknowledgment must depend on Media success (ack-implies-durable)",
					pass.Fset.Position(durableDiscarded.Pos()))
			default:
				pass.Reportf(send.Pos(),
					"write/fence reply sent without any durable media call (Media.Write/WriteV/SetFence) in this function: an acknowledgment that nothing made stable violates ack-implies-durable")
			}
		}
	}
}

// errorUse finds the calls in body that match and says what became of
// their error result: checked is the first one whose error is consumed,
// discarded the last one whose error is dropped — used as a statement,
// or assigned to _.
func errorUse(body *ast.BlockStmt, match func(*ast.CallExpr) bool) (checked, discarded *ast.CallExpr) {
	consumed := func(call *ast.CallExpr, ok bool) {
		switch {
		case !ok:
			discarded = call
		case checked == nil:
			checked = call
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// `if err := media.Write(...); err != nil` is this case too:
			// the init statement is an assignment. With a single call on
			// the RHS the error lands in the positionally-matching LHS
			// (or the whole tuple in one value); blank means discarded.
			for _, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && match(call) {
					consumed(call, !allBlank(n.Lhs))
				}
			}
		case *ast.ExprStmt:
			// Statement position: error dropped. (In disk and blockstore
			// A1 already flags the discard; remember it so the send site
			// is pointed at too.)
			if call, ok := n.X.(*ast.CallExpr); ok && match(call) {
				consumed(call, false)
			}
		case *ast.RangeStmt:
			// `for i, err := range media.WriteV(batch)` consumes the
			// error vector.
			if call, ok := n.X.(*ast.CallExpr); ok && match(call) {
				consumed(call, n.Value != nil && !isBlank(n.Value))
			}
		case *ast.ReturnStmt:
			// `return store.Commit()` hands the error to the caller.
			for _, res := range n.Results {
				if call, ok := res.(*ast.CallExpr); ok && match(call) {
					consumed(call, true)
				}
			}
		}
		return true
	})
	return checked, discarded
}

// checkCommitBeforeSend implements A4 over each top-level function in
// the server package.
func checkCommitBeforeSend(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var sends []*ast.CallExpr
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && callsCtrlSender(pass, call) {
				sends = append(sends, call)
			}
			return true
		})
		if len(sends) == 0 {
			continue
		}
		checked, discarded := errorUse(fd.Body, func(call *ast.CallExpr) bool {
			return isStoreCommit(pass, call)
		})
		for _, send := range sends {
			switch {
			case checked != nil && checked.Pos() < send.Pos():
			case checked != nil:
				pass.Reportf(send.Pos(),
					"control message handed to the ctrl sender before the metadata journal commit at %s: the commit must come first (persist-before-send)",
					pass.Fset.Position(checked.Pos()))
			case discarded != nil:
				pass.Reportf(send.Pos(),
					"control message handed to the ctrl sender but the metadata journal commit at %s discards its error: the send must depend on Commit succeeding (persist-before-send)",
					pass.Fset.Position(discarded.Pos()))
			default:
				pass.Reportf(send.Pos(),
					"control message handed to the ctrl sender without a metadata journal commit (meta.Store.Commit) in this function: a reply must not leave before the mutation it acknowledges is journalled (persist-before-send)")
			}
		}
	}
}

// callsCtrlSender reports whether call invokes a struct field named
// ctrl — s.ctrl(to, m), the Server's one way onto the control network.
func callsCtrlSender(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ctrl" {
		return false
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}

// isStoreCommit reports whether call invokes Commit on a type of the
// meta package.
func isStoreCommit(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Commit" {
		return false
	}
	recv := analysis.RecvNamed(fn)
	return recv != nil && recv.Obj().Pkg() != nil &&
		analysis.PkgBase(recv.Obj().Pkg().Path()) == "meta"
}

// sendsAckReply reports whether a call passes a *msg.DiskWriteRes,
// *msg.DiskWriteVRes, or *msg.FenceRes as an argument — the shape of
// every d.send(client, res) acknowledgment.
func sendsAckReply(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			continue
		}
		named := analysis.NamedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			continue
		}
		if analysis.PkgBase(named.Obj().Pkg().Path()) == "msg" && ackReplies[named.Obj().Name()] {
			return true
		}
	}
	return false
}

// isDurableMediaCall reports whether call invokes Write/WriteV/SetFence
// on a blockstore media value (the Media interface or a concrete store).
func isDurableMediaCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !durableMethods[fn.Name()] {
		return false
	}
	recv := analysis.RecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil {
		return false
	}
	return analysis.PkgBase(recv.Obj().Pkg().Path()) == "blockstore"
}

// checkSyncSite implements A3: (*os.File).Sync only inside the method
// fsync of type Syncer in package blockstore.
func checkSyncSite(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil && fn.Name() == "fsync" {
			if recv := analysis.RecvNamed(fn); recv != nil && recv.Obj().Name() == "Syncer" &&
				analysis.PkgBase(pass.Pkg.Path()) == "blockstore" {
				continue // the one fsync site
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Sync" {
				return true
			}
			recv := analysis.RecvNamed(fn)
			if recv == nil || recv.Obj().Pkg() == nil {
				return true
			}
			if recv.Obj().Pkg().Path() == "os" && recv.Obj().Name() == "File" {
				pass.Reportf(call.Pos(),
					"direct (*os.File).Sync bypasses blockstore's (*Syncer).fsync: every fsync of the tree goes through that one function, where it is instrumented, gated, and its error wrapped")
			}
			return true
		})
	}
}

func allBlank(exprs []ast.Expr) bool {
	saw := false
	for _, e := range exprs {
		if !isBlank(e) {
			return false
		}
		saw = true
	}
	return saw
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
