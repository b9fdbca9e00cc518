package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// The //tank: annotation vocabulary of the ownership checker.
//
//	//tank:owns <param>      (func doc) the callee takes ownership of the
//	                         named pooled-buffer parameter; for closure
//	                         parameters, of every owned buffer the closure
//	                         captures.
//	//tank:owns result       (func doc) the caller receives ownership of
//	                         the returned buffer.
//	//tank:adopt(reason)     (line) the owned buffer on this line is
//	                         deliberately handed to a place the checker
//	                         cannot follow (a field, a long-lived struct);
//	                         ownership ends here.
//	//tank:alias(reason)     (line) the value stored on this line is a
//	                         short-lived alias; the variable keeps
//	                         ownership and the usual Put obligation.
//
// Line annotations cover their own line and the next, mirroring
// //lint:allow placement; as there, an empty reason is itself a finding.
var (
	tankLineRE = regexp.MustCompile(`^//\s*tank:(adopt|alias)\(([^)]*)\)\s*$`)
	tankOwnsRE = regexp.MustCompile(`^//\s*tank:owns\s+([A-Za-z_][A-Za-z0-9_]*)\s*(//.*)?$`)
)

// ownsSpec is the parsed //tank:owns content of one function's doc.
type ownsSpec struct {
	params []int // flat parameter indexes whose ownership transfers in
	result bool  // the caller owns the returned buffer
}

// ctx is the per-package analysis context: the pass, parsed annotations,
// and the doc-derived ownership specs of this package's functions.
type ctx struct {
	pass    *analysis.Pass
	info    *types.Info
	docOwns map[*types.Func]*ownsSpec
	// annots is filename → line → annotation kind, "adopt" or "alias".
	annots map[string]map[int]string
	// served holds the function literals handed to a Serve as its deliver
	// callback (markServed).
	served map[*ast.FuncLit]bool
}

func newCtx(pass *analysis.Pass) *ctx {
	c := &ctx{
		pass:    pass,
		info:    pass.TypesInfo,
		docOwns: map[*types.Func]*ownsSpec{},
		annots:  map[string]map[int]string{},
		served:  map[*ast.FuncLit]bool{},
	}
	for _, f := range pass.Files {
		c.collectLineAnnots(f)
		c.collectDocOwns(f)
	}
	return c
}

func (c *ctx) collectLineAnnots(f *ast.File) {
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			m := tankLineRE.FindStringSubmatch(cm.Text)
			if m == nil {
				continue
			}
			if strings.TrimSpace(m[2]) == "" {
				c.pass.Reportf(cm.Pos(), "tank:%s annotation needs a reason: //tank:%s(why this store is safe)", m[1], m[1])
			}
			pos := c.pass.Fset.Position(cm.Pos())
			byLine := c.annots[pos.Filename]
			if byLine == nil {
				byLine = map[int]string{}
				c.annots[pos.Filename] = byLine
			}
			byLine[pos.Line] = m[1]
		}
	}
}

// sanction returns the kind of the line annotation covering pos, or "":
// an annotation sanctions its own line (trailing comment) and the line
// below it (own-line comment above the statement).
func (c *ctx) sanction(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	byLine := c.annots[p.Filename]
	if a, ok := byLine[p.Line]; ok {
		return a
	}
	return byLine[p.Line-1]
}

func (c *ctx) collectDocOwns(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		fn, _ := c.info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		for _, cm := range fd.Doc.List {
			m := tankOwnsRE.FindStringSubmatch(cm.Text)
			if m == nil {
				continue
			}
			spec := c.docOwns[fn]
			if spec == nil {
				spec = &ownsSpec{}
				c.docOwns[fn] = spec
			}
			if m[1] == "result" {
				spec.result = true
				continue
			}
			idx, ok := paramIndex(fd, m[1])
			if !ok {
				c.pass.Reportf(cm.Pos(), "//tank:owns names unknown parameter %q", m[1])
				continue
			}
			spec.params = append(spec.params, idx)
		}
	}
}

// paramIndex resolves a parameter name to its flat index in the
// signature.
func paramIndex(fd *ast.FuncDecl, name string) (int, bool) {
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, nm := range field.Names {
			if nm.Name == name {
				return idx, true
			}
			idx++
		}
	}
	return 0, false
}

// summary is what the checker knows about one callee's ownership
// behavior — from the built-in table for the pool and envelope
// primitives (export data carries no comments, so cross-package
// knowledge must be built in) and from //tank:owns docs for functions
// in the analyzed package.
type summary struct {
	bufSource  bool  // returns a buffer the caller owns (bufpool.Get)
	envSource  bool  // returns an owned *msg.Envelope borrow (Recv)
	release    []int // parameter indexes returned to the pool (bufpool.Put)
	owns       []int // parameter indexes whose ownership transfers in
	ownsResult bool
	retain     bool // Envelope.Retain
	releaseRef bool // Envelope.Release
	borrowed   bool // Envelope.Borrowed: fresh refs=1 borrow, owns the buffer
}

func (c *ctx) summary(fn *types.Func) summary {
	var s summary
	if fn == nil {
		return s
	}
	pkgBase := ""
	if fn.Pkg() != nil {
		pkgBase = analysis.PkgBase(fn.Pkg().Path())
	}
	switch {
	case pkgBase == "bufpool" && fn.Name() == "Get":
		s.bufSource = true
	case pkgBase == "bufpool" && fn.Name() == "Put":
		s.release = []int{0}
	}
	if recv := analysis.RecvNamed(fn); recv != nil && pkgBase == "msg" {
		switch recv.Obj().Name() + "." + fn.Name() {
		case "Envelope.Retain":
			s.retain = true
		case "Envelope.Release":
			s.releaseRef = true
		case "Envelope.Borrowed":
			s.borrowed = true
			s.owns = append(s.owns, 0)
		case "DiskReadVRes.Lend", "DiskReadRes.Lend":
			// The reply lends its pooled payload to the fabric, whose
			// msg.EndLoan is the Put.
			s.owns = append(s.owns, 0)
		}
	}
	// Any method named Recv returning (*msg.Envelope, error) hands the
	// caller an owned borrow — this matches wire.Codec and the rpcnet
	// codec interface without naming either package.
	if fn.Name() == "Recv" && !s.envSource {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 2 {
			if isEnvelopeType(sig.Results().At(0).Type()) && isErrorType(sig.Results().At(1).Type()) {
				s.envSource = true
			}
		}
	}
	if spec := c.docOwns[fn]; spec != nil {
		s.owns = append(s.owns, spec.params...)
		s.ownsResult = spec.result
	}
	return s
}

// markServed records the function literals call hands a method named
// Serve as its deliver callback — wire.Codec.Serve, without naming the
// package, as Recv is matched. Serve gives each call of the callback the
// borrow a Recv caller owns, so the literal's envelope parameter starts
// owned and must be released or handed on on every path.
func (c *ctx) markServed(call *ast.CallExpr) {
	if fn := analysis.Callee(c.info, call); fn == nil || fn.Name() != "Serve" {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && isDeliverType(c.info.TypeOf(lit)) {
			c.served[lit] = true
		}
	}
}

// isDeliverType reports whether t is func(*msg.Envelope): a deliver
// callback, which takes the borrow of the envelope it is called with.
func isDeliverType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	_, ptr := sig.Params().At(0).Type().(*types.Pointer)
	return ptr && isEnvelopeType(sig.Params().At(0).Type())
}

func isBufferType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isEnvelopeType(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Envelope" && analysis.PkgBase(n.Obj().Pkg().Path()) == "msg"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
