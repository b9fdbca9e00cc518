// Package cfg builds a control-flow graph over one function body: basic
// blocks of statement-level AST nodes connected by branch, loop, switch,
// select, label, and panic edges. It is the substrate of tanklint's
// flow-sensitive passes, bufown and locksafety, built — like the rest of
// internal/analysis — on the standard library alone.
//
// Granularity is the statement: each block holds simple statements in
// execution order, and compound statements (if/for/switch/...) are
// decomposed into blocks and edges. Conditions are recorded on the block
// that evaluates them (Block.Cond), with the convention that for a
// two-way branch Succs[0] is the true edge and Succs[1] the false edge,
// so dataflow clients can refine facts per edge (e.g. the `err != nil`
// guard over a just-received value).
//
// Defer is modeled in place, not at exit: a *ast.DeferStmt appears as an
// ordinary node in the block that registers it, and clients that care
// about at-exit effects (bufown's defer-Put) handle the registration
// point themselves. This keeps conditional defers exact — a defer inside
// a branch only affects paths through that branch — at the cost of not
// modeling defer ORDER, which no current pass needs.
//
// panic(), and only panic(), terminates a path: the block ends with no
// successors, so facts held at a panic never reach the exit checks.
// Calls that never return dynamically (log.Fatal, os.Exit) are treated
// as ordinary calls; protocol packages do not use them.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks (dense, stable).
	Index int
	// Kind is a human-readable tag for debugging and tests ("entry",
	// "if.then", "for.body", ...).
	Kind string
	// Nodes are the statements (and branch-condition expressions) the
	// block executes, in order. Compound statements never appear here;
	// their pieces are distributed over the blocks they created.
	Nodes []ast.Node
	// Succs are the possible successors. For a block ending in a
	// two-way condition (Cond != nil), Succs[0] is taken when Cond is
	// true and Succs[1] when it is false.
	Succs []*Block
	// Cond is the branch condition evaluated at the end of this block,
	// or nil for unconditional control transfer.
	Cond ast.Expr
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// Graph is the CFG of one function body.
type Graph struct {
	Entry *Block
	// Exit is the single synthetic return target. Every path that
	// leaves the function normally (explicit return, falling off the
	// end) reaches it; panics do not.
	Exit   *Block
	Blocks []*Block
}

// String renders the graph compactly for tests: one line per block.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s ->", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the canonical iteration order for a forward dataflow
// fixpoint (predecessors tend to be visited before successors).
func (g *Graph) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		post = append(post, b)
	}
	visit(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// builder carries the construction state for one function body.
type builder struct {
	g *Graph
	// current is the block new statements append to; nil after a
	// terminator (return/branch/panic) until the next label or join.
	current *Block
	// breaks / continues are the innermost targets, shadowed per loop
	// or switch; labeled variants live in labeledBreaks/labeledConts.
	breakTarget, continueTarget *Block
	labeledBreaks, labeledConts map[string]*Block
	// labels maps label name → its block, for goto. Gotos seen before
	// their label are patched at the end.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// labelPending carries a label name from a LabeledStmt to the loop
	// or switch it labels (Go attaches break/continue labels to the
	// immediately following statement).
	labelPending string
}

// New builds the CFG of one function body (a *ast.FuncDecl's or
// *ast.FuncLit's Body).
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{
		g:             g,
		labeledBreaks: make(map[string]*Block),
		labeledConts:  make(map[string]*Block),
		labels:        make(map[string]*Block),
		pendingGotos:  make(map[string][]*Block),
	}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.current = g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.jump(g.Exit)
	// Resolve forward gotos.
	for name, sources := range b.pendingGotos {
		target := b.labels[name]
		if target == nil {
			// Malformed input (undefined label) — the type checker
			// rejects it before any pass runs; keep the graph sane.
			target = g.Exit
		}
		for _, src := range sources {
			src.Succs = append(src.Succs, target)
		}
	}
	return g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump ends the current block with an unconditional edge to target.
func (b *builder) jump(target *Block) {
	if b.current == nil {
		return // dead code after a terminator
	}
	b.current.Succs = append(b.current.Succs, target)
	b.current = nil
}

// branch ends the current block with cond: true → t, false → f.
func (b *builder) branch(cond ast.Expr, t, f *Block) {
	if b.current == nil {
		return
	}
	b.current.Cond = cond
	if cond != nil {
		b.current.Nodes = append(b.current.Nodes, cond)
	}
	b.current.Succs = append(b.current.Succs, t, f)
	b.current = nil
}

// startBlock makes target the current block (a join point or loop head).
func (b *builder) startBlock(target *Block) {
	b.current = target
}

func (b *builder) add(n ast.Node) {
	if b.current == nil {
		return // unreachable statement
	}
	b.current.Nodes = append(b.current.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanic reports whether the statement is a call to the builtin panic.
func isPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.branch(s.Cond, then, els)
			b.startBlock(then)
			b.stmt(s.Body)
			b.jump(done)
			b.startBlock(els)
			b.stmt(s.Else)
			b.jump(done)
		} else {
			b.branch(s.Cond, then, done)
			b.startBlock(then)
			b.stmt(s.Body)
			b.jump(done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.branch(s.Cond, body, done)
		} else {
			b.jump(body)
		}
		b.startBlock(body)
		b.withLoop(done, post, s, func() { b.stmt(s.Body) })
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.add(s.Post)
			b.jump(head)
		}
		b.startBlock(done)

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		// The range expression is evaluated once, before the loop; the
		// per-iteration key/value assignment happens at the head.
		b.add(s)
		b.jump(head)
		b.startBlock(head)
		// Zero or more iterations: head branches to body and done.
		b.current.Succs = append(b.current.Succs, body, done)
		b.current = nil
		b.startBlock(body)
		b.withLoop(done, head, s, func() { b.stmt(s.Body) })
		b.jump(head)
		b.startBlock(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body)

	case *ast.SelectStmt:
		b.switchBody(s.Body)

	case *ast.LabeledStmt:
		name := s.Label.Name
		target := b.newBlock("label." + name)
		b.labels[name] = target
		// Pre-create loop/switch break-continue targets for the label:
		// the labeled statement handler registers them when it runs.
		b.jump(target)
		b.startBlock(target)
		b.labelPending = name
		b.stmt(s.Stmt)
		b.labelPending = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.breakTarget
			if s.Label != nil {
				t = b.labeledBreaks[s.Label.Name]
			}
			if t != nil {
				b.jump(t)
			} else {
				b.current = nil
			}
		case token.CONTINUE:
			t := b.continueTarget
			if s.Label != nil {
				t = b.labeledConts[s.Label.Name]
			}
			if t != nil {
				b.jump(t)
			} else {
				b.current = nil
			}
		case token.GOTO:
			if t, ok := b.labels[s.Label.Name]; ok {
				b.jump(t)
			} else if b.current != nil {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.current)
				b.current = nil
			}
		case token.FALLTHROUGH:
			// Handled structurally by switchBody (the next clause is
			// already this block's successor); nothing to record.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	default:
		if isPanic(s) {
			b.add(s)
			b.current = nil // the path ends here
			return
		}
		// Simple statements: assignments, declarations, expression
		// statements, defer, go, send, inc/dec, empty.
		b.add(s)
	}
}

// withLoop runs fn with break/continue targets installed, registering
// them under the pending label too.
func (b *builder) withLoop(brk, cont *Block, _ ast.Stmt, fn func()) {
	prevB, prevC := b.breakTarget, b.continueTarget
	b.breakTarget, b.continueTarget = brk, cont
	if b.labelPending != "" {
		name := b.labelPending
		b.labelPending = ""
		b.labeledBreaks[name] = brk
		b.labeledConts[name] = cont
		defer func() { delete(b.labeledBreaks, name); delete(b.labeledConts, name) }()
	}
	fn()
	b.breakTarget, b.continueTarget = prevB, prevC
}

// switchBody lowers a switch/type-switch/select body: one block per
// clause, every clause entered from the head, implicit break to done,
// fallthrough to the next clause's block.
func (b *builder) switchBody(body *ast.BlockStmt) {
	done := b.newBlock("switch.done")
	head := b.current
	if head == nil {
		head = b.newBlock("switch.dead")
		b.current = head
	}

	prevBreak := b.breakTarget
	b.breakTarget = done
	if b.labelPending != "" {
		name := b.labelPending
		b.labelPending = ""
		b.labeledBreaks[name] = done
		defer delete(b.labeledBreaks, name)
	}

	var clauses []*Block
	hasDefault := false
	for range body.List {
		clauses = append(clauses, b.newBlock("case"))
	}
	for i, cl := range body.List {
		// Every clause is a possible successor of the head.
		head.Succs = append(head.Succs, clauses[i])
		b.startBlock(clauses[i])
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				b.add(e)
			}
			b.lowerClauseBody(cl.Body, clauses, i, done)
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				b.add(cl.Comm)
			}
			b.lowerClauseBody(cl.Body, clauses, i, done)
		}
	}
	// A switch with no default (no matching case) falls through to
	// done. With a default — or for a select, which blocks until a
	// case fires — every execution goes through some clause, and an
	// extra head→done edge would manufacture a "no clause ran" path
	// that cannot happen (a false leak report in bufown).
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.breakTarget = prevBreak
	b.startBlock(done)
}

// lowerClauseBody lowers one clause body, wiring fallthrough to the next
// clause and the implicit break to done.
func (b *builder) lowerClauseBody(body []ast.Stmt, clauses []*Block, i int, done *Block) {
	fellThrough := false
	for _, s := range body {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			if i+1 < len(clauses) {
				b.jump(clauses[i+1])
				fellThrough = true
			}
			break
		}
		b.stmt(s)
	}
	if !fellThrough {
		b.jump(done)
	}
}
