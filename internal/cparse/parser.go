// Package cparse implements a recursive-descent parser for the C subset
// used throughout the Graph2Par pipeline: function definitions, global and
// local declarations, the full statement set (for/while/do, if/switch,
// break/continue/goto), and expressions with C precedence. It plays the role
// Clang + tree-sitter play in the paper: files that fail to parse are
// dropped from the dataset, and OpenMP `#pragma` lines are attached to the
// loop they precede so the labeling stage can read them.
package cparse

import (
	"fmt"
	"strconv"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/clex"
)

// Error is a parse error with a source position.
type Error struct {
	Pos clex.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg) }

// MaxDepth bounds both the parser's recursion and the depth of every AST
// it returns. Each level of nesting costs the parser, and each recursive
// pass downstream (printer, aug-AST builder, verifier, interpreter), some
// hundreds of bytes of goroutine stack; past Go's stack limit the process
// dies with an error recover cannot catch. Deeper input is a parse error.
const MaxDepth = 256

// tooDeepMsg is the message of every depth-limit parse error.
var tooDeepMsg = fmt.Sprintf("nesting deeper than %d levels", MaxDepth)

type parser struct {
	toks []clex.Token
	pos  int
	// depth counts the live calls of the functions that call enter.
	depth int
	// ast is the slab allocator AST nodes come from (see session.go).
	ast *astAlloc
	// idents is the next cast.Ident.ID.
	idents int
}

// ParseFile parses a full translation unit. The AST comes from a fresh
// (never recycled) Session, so callers may retain it indefinitely; hot
// paths that parse per request should use a pooled Session instead.
func ParseFile(src string) (*cast.File, error) {
	return NewSession().ParseFile(src)
}

// ParseStmt parses a single statement (useful for loop snippets). A pragma
// line before a loop is attached to the loop.
func ParseStmt(src string) (cast.Stmt, error) {
	return NewSession().ParseStmt(src)
}

// ParseExpr parses a single expression.
func ParseExpr(src string) (cast.Expr, error) {
	return NewSession().ParseExpr(src)
}

// ---------------------------------------------------------------------------
// token helpers

//graph2lint:noalloc
func (p *parser) cur() clex.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	// Synthesize EOF at the last token's position — or at 1:1 when the
	// input held no tokens at all, so "unexpected EOF" errors always
	// carry a set position (pinned by FuzzParse).
	last := clex.Pos{Line: 1, Col: 1}
	if len(p.toks) > 0 {
		last = p.toks[len(p.toks)-1].Pos
	}
	return clex.Token{Kind: clex.EOF, Pos: last}
}

//graph2lint:noalloc
func (p *parser) at(n int) clex.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return clex.Token{Kind: clex.EOF}
}

//graph2lint:noalloc
func (p *parser) next() clex.Token {
	t := p.cur()
	p.pos++
	return t
}

//graph2lint:noalloc
func (p *parser) accept(op string) bool {
	if p.cur().Is(op) {
		p.pos++
		return true
	}
	return false
}

//graph2lint:noalloc
func (p *parser) acceptKw(kw string) bool {
	if p.cur().IsKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

//graph2lint:noalloc
func (p *parser) expect(op string) error {
	if p.accept(op) {
		return nil
	}
	return p.errHere(fmt.Sprintf("expected %q, found %q", op, p.cur().Text)) //graph2lint:allow noalloc -- error path: the parse has already failed
}

//graph2lint:noalloc
func (p *parser) errHere(msg string) *Error {
	return &Error{Pos: p.cur().Pos, Msg: msg}
}

// enter counts one level of parser recursion, failing past MaxDepth; on
// success the caller defers leave. Every recursive cycle of the grammar
// runs through a function that calls it: parseStmt, parseInitializer,
// parseAssignExpr, parseCondExpr and parseUnaryExpr.
func (p *parser) enter() error {
	if p.depth == MaxDepth {
		return p.errHere(tooDeepMsg)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

// ---------------------------------------------------------------------------
// types

// atType reports whether the current token can begin a type specifier.
//
//graph2lint:noalloc
func (p *parser) atType() bool {
	t := p.cur()
	return t.Kind == clex.Keyword && clex.IsTypeKeyword(t.Text)
}

// parseTypeSpec consumes a (possibly qualified, possibly struct) type
// specifier and returns its canonical spelling, e.g. "unsigned long",
// "const float", "struct point".
func (p *parser) parseTypeSpec() (string, error) {
	if !p.atType() {
		return "", p.errHere(fmt.Sprintf("expected type, found %q", p.cur().Text))
	}
	var parts []string
	for p.atType() {
		t := p.next()
		switch t.Text {
		case "struct", "union", "enum":
			if p.cur().Kind != clex.Ident {
				return "", p.errHere("expected name after " + t.Text)
			}
			parts = append(parts, t.Text+" "+p.next().Text)
		case "static", "extern", "register", "inline", "auto", "restrict":
			// storage/qualifier keywords do not contribute to the type name
		default:
			parts = append(parts, t.Text)
		}
	}
	if len(parts) == 0 {
		parts = []string{"int"}
	}
	return strings.Join(parts, " "), nil
}

// ---------------------------------------------------------------------------
// top level

func (p *parser) parseFile() (*cast.File, error) {
	file := alloc(&p.ast.files, cast.File{P: p.cur().Pos})
	for p.cur().Kind != clex.EOF {
		t := p.cur()
		switch t.Kind {
		case clex.DirectiveLn:
			p.next() // #include / #define etc. are ignored
			continue
		case clex.PragmaLine:
			p.next() // a file-scope pragma has nothing to attach to
			continue
		}
		if p.accept(";") {
			continue
		}
		if !p.atType() {
			return nil, p.errHere(fmt.Sprintf("expected declaration at top level, found %q", t.Text))
		}
		// struct definition: struct Name { ... } ;
		if t.IsKeyword("struct") && p.at(1).Kind == clex.Ident && p.at(2).Is("{") {
			def, err := p.parseStructDef()
			if err != nil {
				return nil, err
			}
			file.Structs = append(file.Structs, def)
			continue
		}
		typ, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		ptr := 0
		for p.accept("*") {
			ptr++
		}
		if p.cur().Kind != clex.Ident {
			return nil, p.errHere("expected declarator name")
		}
		nameTok := p.next()
		if p.cur().Is("(") {
			fn, err := p.parseFuncRest(typ, nameTok)
			if err != nil {
				return nil, err
			}
			file.Funcs = append(file.Funcs, fn)
			continue
		}
		decls, err := p.parseVarDeclRest(typ, ptr, nameTok)
		if err != nil {
			return nil, err
		}
		file.Globals = append(file.Globals, decls...)
	}
	file.Idents = p.idents
	return file, nil
}

// parseStructDef parses `struct Name { field decls... };` into a StructDef
// so the interpreter can allocate struct values field by field.
func (p *parser) parseStructDef() (*cast.StructDef, error) {
	start := p.next().Pos // struct
	name := p.next().Text // name
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	def := alloc(&p.ast.structDefs, cast.StructDef{Name: name, P: start})
	for !p.cur().Is("}") {
		if p.cur().Kind == clex.EOF {
			return nil, p.errHere("unterminated struct definition")
		}
		typ, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		ptr := 0
		for p.accept("*") {
			ptr++
		}
		if p.cur().Kind != clex.Ident {
			return nil, p.errHere("expected field name")
		}
		nameTok := p.next()
		decls, err := p.parseVarDeclRest(typ, ptr, nameTok) // consumes ';'
		if err != nil {
			return nil, err
		}
		def.Fields = append(def.Fields, decls...)
	}
	p.next() // }
	p.accept(";")
	return def, nil
}

func (p *parser) parseFuncRest(retType string, nameTok clex.Token) (*cast.FuncDecl, error) {
	fn := alloc(&p.ast.funcDecls, cast.FuncDecl{RetType: retType, Name: nameTok.Text, P: nameTok.Pos})
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.cur().Is(")") {
		for {
			if p.acceptKw("void") && p.cur().Is(")") {
				break
			}
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, param)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept(";") {
		return fn, nil // prototype
	}
	body, err := p.parseCompound()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseParam() (*cast.Param, error) {
	start := p.cur().Pos
	typ, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ptr := 0
	for p.accept("*") {
		ptr++
	}
	name := ""
	if p.cur().Kind == clex.Ident {
		name = p.next().Text
	}
	dims := 0
	for p.accept("[") {
		// dimension expressions in parameter arrays are irrelevant here
		for !p.cur().Is("]") && p.cur().Kind != clex.EOF {
			p.next()
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		dims++
	}
	return alloc(&p.ast.params, cast.Param{Type: typ, Name: name, Pointer: ptr, ArrayDims: dims, P: start}), nil
}

// parseVarDeclRest parses declarators after the first name has been
// consumed, through the terminating semicolon.
func (p *parser) parseVarDeclRest(typ string, ptr int, nameTok clex.Token) ([]*cast.VarDecl, error) {
	var decls []*cast.VarDecl
	d, err := p.parseDeclarator(typ, ptr, nameTok)
	if err != nil {
		return nil, err
	}
	decls = append(decls, d)
	for p.accept(",") {
		ptr = 0
		for p.accept("*") {
			ptr++
		}
		if p.cur().Kind != clex.Ident {
			return nil, p.errHere("expected declarator name")
		}
		nt := p.next()
		d, err := p.parseDeclarator(typ, ptr, nt)
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *parser) parseDeclarator(typ string, ptr int, nameTok clex.Token) (*cast.VarDecl, error) {
	d := alloc(&p.ast.varDecls, cast.VarDecl{Type: typ, Name: nameTok.Text, Pointer: ptr, P: nameTok.Pos})
	for p.accept("[") {
		if p.cur().Is("]") {
			d.ArrayDims = append(d.ArrayDims, nil)
		} else {
			dim, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.ArrayDims = append(d.ArrayDims, dim)
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		init, err := p.parseInitializer()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *parser) parseInitializer() (cast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.cur().Is("{") {
		start := p.next().Pos
		lst := alloc(&p.ast.initLists, cast.InitList{P: start})
		if !p.cur().Is("}") {
			for {
				el, err := p.parseInitializer()
				if err != nil {
					return nil, err
				}
				lst.Elems = append(lst.Elems, el)
				if !p.accept(",") {
					break
				}
				if p.cur().Is("}") { // trailing comma
					break
				}
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return lst, nil
	}
	return p.parseAssignExpr()
}

// ---------------------------------------------------------------------------
// statements

func (p *parser) parseCompound() (*cast.Compound, error) {
	start := p.cur().Pos
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := alloc(&p.ast.compounds, cast.Compound{P: start})
	for !p.cur().Is("}") {
		if p.cur().Kind == clex.EOF {
			return nil, p.errHere("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Items = append(blk.Items, s)
		}
	}
	p.next() // consume }
	return blk, nil
}

func (p *parser) parseStmt() (cast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == clex.DirectiveLn:
		p.next()
		return alloc(&p.ast.emptys, cast.Empty{P: t.Pos}), nil
	case t.Kind == clex.PragmaLine:
		p.next()
		// Attach OpenMP pragmas to the loop that follows.
		if p.cur().IsKeyword("for") || p.cur().IsKeyword("while") {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			switch loop := s.(type) {
			case *cast.For:
				loop.Pragma = t.Text
			case *cast.While:
				loop.Pragma = t.Text
			}
			return s, nil
		}
		if p.cur().Kind == clex.PragmaLine {
			// stacked pragmas (e.g. `#pragma omp parallel` + `#pragma omp for`):
			// merge onto the eventual loop by recursing and prepending.
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			switch loop := s.(type) {
			case *cast.For:
				loop.Pragma = t.Text + "\n" + loop.Pragma
			case *cast.While:
				loop.Pragma = t.Text + "\n" + loop.Pragma
			}
			return s, nil
		}
		return alloc(&p.ast.pragmas, cast.PragmaStmt{Text: t.Text, P: t.Pos}), nil
	case t.Is("{"):
		return p.parseCompound()
	case t.Is(";"):
		p.next()
		return alloc(&p.ast.emptys, cast.Empty{P: t.Pos}), nil
	case t.IsKeyword("if"):
		return p.parseIf()
	case t.IsKeyword("for"):
		return p.parseFor()
	case t.IsKeyword("while"):
		return p.parseWhile()
	case t.IsKeyword("do"):
		return p.parseDoWhile()
	case t.IsKeyword("return"):
		p.next()
		ret := alloc(&p.ast.returns, cast.Return{P: t.Pos})
		if !p.cur().Is(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ret.X = x
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return ret, nil
	case t.IsKeyword("break"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.breaks, cast.Break{P: t.Pos}), nil
	case t.IsKeyword("continue"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.continues, cast.Continue{P: t.Pos}), nil
	case t.IsKeyword("switch"):
		return p.parseSwitch()
	case t.IsKeyword("case"):
		p.next()
		val, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.cases, cast.Case{Val: val, P: t.Pos}), nil
	case t.IsKeyword("default"):
		p.next()
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.cases, cast.Case{P: t.Pos}), nil
	case t.IsKeyword("goto"):
		p.next()
		if p.cur().Kind != clex.Ident {
			return nil, p.errHere("expected label after goto")
		}
		name := p.next().Text
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.gotos, cast.Goto{Name: name, P: t.Pos}), nil
	case t.Kind == clex.Ident && p.at(1).Is(":"):
		p.next()
		p.next()
		return alloc(&p.ast.labels, cast.Label{Name: t.Text, P: t.Pos}), nil
	case p.atType():
		return p.parseDeclStmt()
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return alloc(&p.ast.exprStmts, cast.ExprStmt{X: x, P: t.Pos}), nil
	}
}

func (p *parser) parseDeclStmt() (cast.Stmt, error) {
	start := p.cur().Pos
	typ, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ptr := 0
	for p.accept("*") {
		ptr++
	}
	if p.cur().Kind != clex.Ident {
		return nil, p.errHere("expected declarator name")
	}
	nameTok := p.next()
	decls, err := p.parseVarDeclRest(typ, ptr, nameTok)
	if err != nil {
		return nil, err
	}
	return alloc(&p.ast.declStmts, cast.DeclStmt{Decls: decls, P: start}), nil
}

func (p *parser) parseIf() (cast.Stmt, error) {
	start := p.next().Pos // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	node := alloc(&p.ast.ifs, cast.If{Cond: cond, Then: then, P: start})
	if p.acceptKw("else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseFor() (cast.Stmt, error) {
	start := p.next().Pos // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	loop := alloc(&p.ast.fors, cast.For{P: start})
	switch {
	case p.accept(";"):
		loop.Init = nil
	case p.atType():
		init, err := p.parseDeclStmt() // consumes trailing ';'
		if err != nil {
			return nil, err
		}
		loop.Init = init
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		loop.Init = alloc(&p.ast.exprStmts, cast.ExprStmt{X: x, P: x.Pos()})
	}
	if !p.cur().Is(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		loop.Cond = cond
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.cur().Is(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		loop.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	loop.Body = body
	return loop, nil
}

func (p *parser) parseWhile() (cast.Stmt, error) {
	start := p.next().Pos // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return alloc(&p.ast.whiles, cast.While{Cond: cond, Body: body, P: start}), nil
}

func (p *parser) parseDoWhile() (cast.Stmt, error) {
	start := p.next().Pos // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("while") {
		return nil, p.errHere("expected `while` after do-body")
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return alloc(&p.ast.doWhiles, cast.DoWhile{Body: body, Cond: cond, P: start}), nil
}

func (p *parser) parseSwitch() (cast.Stmt, error) {
	start := p.next().Pos // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return alloc(&p.ast.switches, cast.Switch{Cond: cond, Body: body, P: start}), nil
}

// ---------------------------------------------------------------------------
// expressions (C precedence, recursive descent)

func (p *parser) parseExpr() (cast.Expr, error) {
	x, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Is(",") {
		pos := p.next().Pos
		y, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		x = alloc(&p.ast.commas, cast.Comma{X: x, Y: y, P: pos})
	}
	return x, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssignExpr() (cast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == clex.Punct && assignOps[t.Text] {
		p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.ast.assigns, cast.Assign{Op: t.Text, LHS: lhs, RHS: rhs, P: t.Pos}), nil
	}
	return lhs, nil
}

func (p *parser) parseCondExpr() (cast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinaryExpr(1)
	if err != nil {
		return nil, err
	}
	if p.cur().Is("?") {
		pos := p.next().Pos
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		els, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.ast.conds, cast.Conditional{Cond: cond, Then: then, Else: els, P: pos}), nil
	}
	return cond, nil
}

func binOpPrec(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "|":
		return 3
	case "^":
		return 4
	case "&":
		return 5
	case "==", "!=":
		return 6
	case "<", ">", "<=", ">=":
		return 7
	case "<<", ">>":
		return 8
	case "+", "-":
		return 9
	case "*", "/", "%":
		return 10
	}
	return 0
}

func (p *parser) parseBinaryExpr(minPrec int) (cast.Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != clex.Punct {
			return lhs, nil
		}
		prec := binOpPrec(t.Text)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = alloc(&p.ast.binaries, cast.Binary{Op: t.Text, X: lhs, Y: rhs, P: t.Pos})
	}
}

func (p *parser) parseUnaryExpr() (cast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Is("++"), t.Is("--"), t.Is("-"), t.Is("+"), t.Is("!"), t.Is("~"), t.Is("*"), t.Is("&"):
		p.next()
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.ast.unaries, cast.Unary{Op: t.Text, X: x, P: t.Pos}), nil
	case t.IsKeyword("sizeof"):
		p.next()
		if p.cur().Is("(") && p.at(1).Kind == clex.Keyword && clex.IsTypeKeyword(p.at(1).Text) {
			p.next()
			typ, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			for p.accept("*") {
				typ += "*"
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return alloc(&p.ast.sizeofs, cast.SizeofExpr{Type: typ, P: t.Pos}), nil
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.ast.sizeofs, cast.SizeofExpr{X: x, P: t.Pos}), nil
	case t.Is("(") && p.at(1).Kind == clex.Keyword && clex.IsTypeKeyword(p.at(1).Text):
		// C-style cast: ( type-spec pointer* )
		p.next()
		typ, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for p.accept("*") {
			typ += "*"
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.ast.casts, cast.CastExpr{Type: typ, X: x, P: t.Pos}), nil
	default:
		return p.parsePostfixExpr()
	}
}

func (p *parser) parsePostfixExpr() (cast.Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.Is("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = alloc(&p.ast.indexes, cast.Index{Arr: x, Idx: idx, P: t.Pos})
		case t.Is("("):
			p.next()
			call := alloc(&p.ast.calls, cast.Call{Fun: x, P: t.Pos})
			if !p.cur().Is(")") {
				for {
					arg, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = call
		case t.Is("."):
			p.next()
			if p.cur().Kind != clex.Ident {
				return nil, p.errHere("expected member name after '.'")
			}
			x = alloc(&p.ast.members, cast.Member{X: x, Name: p.next().Text, P: t.Pos})
		case t.Is("->"):
			p.next()
			if p.cur().Kind != clex.Ident {
				return nil, p.errHere("expected member name after '->'")
			}
			x = alloc(&p.ast.members, cast.Member{X: x, Name: p.next().Text, Arrow: true, P: t.Pos})
		case t.Is("++"), t.Is("--"):
			p.next()
			x = alloc(&p.ast.unaries, cast.Unary{Op: t.Text, X: x, Postfix: true, P: t.Pos})
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimaryExpr() (cast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case clex.Ident:
		p.next()
		p.idents++
		return alloc(&p.ast.idents, cast.Ident{Name: t.Text, ID: p.idents - 1, P: t.Pos}), nil
	case clex.IntLit:
		p.next()
		v, _ := strconv.ParseInt(strings.TrimRight(t.Text, "uUlL"), 0, 64)
		return alloc(&p.ast.intLits, cast.IntLit{Text: t.Text, Value: v, P: t.Pos}), nil
	case clex.FloatLit:
		p.next()
		v, _ := strconv.ParseFloat(strings.TrimRight(t.Text, "fFlL"), 64)
		return alloc(&p.ast.floatLits, cast.FloatLit{Text: t.Text, Value: v, P: t.Pos}), nil
	case clex.CharLit:
		p.next()
		return alloc(&p.ast.charLits, cast.CharLit{Text: t.Text, P: t.Pos}), nil
	case clex.StringLit:
		p.next()
		// Adjacent string literals concatenate (C translation phase 6):
		// `"a" "b"` is one literal. The raw spelling keeps each piece.
		text := t.Text
		for p.cur().Kind == clex.StringLit {
			text += " " + p.next().Text
		}
		return alloc(&p.ast.stringLits, cast.StringLit{Text: text, P: t.Pos}), nil
	}
	if t.Is("(") {
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errHere(fmt.Sprintf("unexpected token %q in expression", t.Text))
}
