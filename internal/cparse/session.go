package cparse

import (
	"graph2par/internal/cast"
	"graph2par/internal/clex"
	"graph2par/internal/slab"
)

// This file is the parser's memory layer. A Session owns everything a
// parse allocates apart from the AST's slice fields: the token buffer and
// a set of per-node-type slab allocators. Parsing through a Session turns
// one heap object per AST node into one per slab chunk, and a recycled
// Session (frontend scratch pooling) reuses the same chunks run after run.
//
// Lifetime contract: every AST produced by a Session is valid until the
// Session's next Reset. The package-level ParseFile/ParseStmt/ParseExpr
// wrappers use a fresh, never-reset Session per call, so their ASTs live
// as long as ordinary Go values — corpus samples, training sets and tests
// may retain them indefinitely. Only pooled callers (the engine's
// per-request scratch) Reset, and they own the full lifecycle.

// alloc places v into the slab and returns its stable address (the
// shared chunked bump allocator lives in internal/slab).
//
//graph2lint:noalloc
func alloc[T any](s *slab.Slab[T], v T) *T {
	p := s.Get()
	*p = v
	return p
}

// astAlloc bundles one slab per AST node type the parser creates.
type astAlloc struct {
	files      slab.Slab[cast.File]
	structDefs slab.Slab[cast.StructDef]
	funcDecls  slab.Slab[cast.FuncDecl]
	params     slab.Slab[cast.Param]
	varDecls   slab.Slab[cast.VarDecl]
	initLists  slab.Slab[cast.InitList]
	compounds  slab.Slab[cast.Compound]
	emptys     slab.Slab[cast.Empty]
	pragmas    slab.Slab[cast.PragmaStmt]
	fors       slab.Slab[cast.For]
	whiles     slab.Slab[cast.While]
	doWhiles   slab.Slab[cast.DoWhile]
	ifs        slab.Slab[cast.If]
	switches   slab.Slab[cast.Switch]
	cases      slab.Slab[cast.Case]
	breaks     slab.Slab[cast.Break]
	continues  slab.Slab[cast.Continue]
	returns    slab.Slab[cast.Return]
	gotos      slab.Slab[cast.Goto]
	labels     slab.Slab[cast.Label]
	exprStmts  slab.Slab[cast.ExprStmt]
	declStmts  slab.Slab[cast.DeclStmt]
	commas     slab.Slab[cast.Comma]
	assigns    slab.Slab[cast.Assign]
	conds      slab.Slab[cast.Conditional]
	binaries   slab.Slab[cast.Binary]
	unaries    slab.Slab[cast.Unary]
	sizeofs    slab.Slab[cast.SizeofExpr]
	casts      slab.Slab[cast.CastExpr]
	indexes    slab.Slab[cast.Index]
	calls      slab.Slab[cast.Call]
	members    slab.Slab[cast.Member]
	idents     slab.Slab[cast.Ident]
	intLits    slab.Slab[cast.IntLit]
	floatLits  slab.Slab[cast.FloatLit]
	charLits   slab.Slab[cast.CharLit]
	stringLits slab.Slab[cast.StringLit]
}

//graph2lint:noalloc
func (a *astAlloc) reset() {
	a.files.Reset()
	a.structDefs.Reset()
	a.funcDecls.Reset()
	a.params.Reset()
	a.varDecls.Reset()
	a.initLists.Reset()
	a.compounds.Reset()
	a.emptys.Reset()
	a.pragmas.Reset()
	a.fors.Reset()
	a.whiles.Reset()
	a.doWhiles.Reset()
	a.ifs.Reset()
	a.switches.Reset()
	a.cases.Reset()
	a.breaks.Reset()
	a.continues.Reset()
	a.returns.Reset()
	a.gotos.Reset()
	a.labels.Reset()
	a.exprStmts.Reset()
	a.declStmts.Reset()
	a.commas.Reset()
	a.assigns.Reset()
	a.conds.Reset()
	a.binaries.Reset()
	a.unaries.Reset()
	a.sizeofs.Reset()
	a.casts.Reset()
	a.indexes.Reset()
	a.calls.Reset()
	a.members.Reset()
	a.idents.Reset()
	a.intLits.Reset()
	a.floatLits.Reset()
	a.charLits.Reset()
	a.stringLits.Reset()
}

// Session owns a parse's reusable memory: the token buffer and the AST
// slabs. It is single-goroutine state (one scratch owner at a time); the
// zero value is ready to use.
type Session struct {
	toks []clex.Token
	ast  astAlloc
	// nodes and depths are checkDepth's explicit stack.
	nodes  []cast.Node
	depths []int
}

// NewSession returns an empty parse session.
func NewSession() *Session { return &Session{} }

// Reset recycles the session's AST slabs and token buffer. Every AST the
// session has produced becomes invalid: callers must not Reset while any
// of those nodes are still reachable. The token buffer's full capacity is
// cleared — tokens hold substrings of their source, and a stale tail
// entry would otherwise pin an earlier request's entire source string for
// the pool's lifetime.
//
//graph2lint:noalloc
func (s *Session) Reset() {
	s.ast.reset()
	clear(s.toks[:cap(s.toks)])
	s.toks = s.toks[:0]
	clear(s.nodes[:cap(s.nodes)])
}

func (s *Session) newParser(src string) (*parser, error) {
	toks, err := clex.TokenizeInto(src, s.toks)
	s.toks = toks // keep the (possibly grown) buffer for next time
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, ast: &s.ast}, nil
}

// checkDepth fails with a positioned error at the first node of root's
// tree more than MaxDepth levels deep (root is level 1). The parser's
// recursion bound does not cover the left-deep chains it builds in loops
// (a+b+…, a[i][j]…, f()()…, x++++…), so this walk finds them, with an
// explicit stack because a recursive walk is what such a tree overflows.
func (s *Session) checkDepth(root cast.Node) error {
	nodes := append(s.nodes[:0], root)
	depths := append(s.depths[:0], 1)
	var err error
	for len(nodes) > 0 {
		n, d := nodes[len(nodes)-1], depths[len(depths)-1]
		nodes, depths = nodes[:len(nodes)-1], depths[:len(depths)-1]
		if d > MaxDepth {
			err = &Error{Pos: n.Pos(), Msg: tooDeepMsg}
			break
		}
		nodes = cast.AppendChildren(n, nodes)
		for len(depths) < len(nodes) {
			depths = append(depths, d+1)
		}
	}
	s.nodes, s.depths = nodes[:0], depths[:0]
	return err
}

// ParseFile parses a full translation unit into session-owned memory.
func (s *Session) ParseFile(src string) (*cast.File, error) {
	p, err := s.newParser(src)
	if err != nil {
		return nil, err
	}
	file, err := p.parseFile()
	if err != nil {
		return nil, err
	}
	if err := s.checkDepth(file); err != nil {
		return nil, err
	}
	return file, nil
}

// ParseStmt parses a single statement into session-owned memory.
func (s *Session) ParseStmt(src string) (cast.Stmt, error) {
	p, err := s.newParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, p.errHere("trailing tokens after statement")
	}
	if err := s.checkDepth(st); err != nil {
		return nil, err
	}
	return st, nil
}

// ParseExpr parses a single expression into session-owned memory.
func (s *Session) ParseExpr(src string) (cast.Expr, error) {
	p, err := s.newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, p.errHere("trailing tokens after expression")
	}
	if err := s.checkDepth(e); err != nil {
		return nil, err
	}
	return e, nil
}
