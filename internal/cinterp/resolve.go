package cinterp

import (
	"fmt"

	"graph2par/internal/cast"
)

// The resolver lays out storage the way a C compiler lays out a stack
// frame, once per Run. Each global name gets a slot in one globals frame.
// In each function, every block gets a slot for each name it declares:
// the parameter list, a compound statement, a for statement (its
// initializer and any declaration that is its body) and a switch body.
// A call allocates its function's frame, and entering a block allocates
// nothing.
//
// A slot is bound while its block is live, from the moment one of its
// declarations runs (after the initializer, so `int x = x + 1;` reads the
// enclosing x) to the end of the block. A use names the slot of the
// innermost block around it that declares the name. When that slot is
// unbound it falls back to the next enclosing block's slot for the name
// (frame.outer), then to the global, and fails as an undeclared variable
// when none is bound. That is the rule a chain of per-block scopes gives:
// a use before a declaration in its block reads the enclosing name, and
// so does a switch case that jumped over the declaration.

// ref is where one identifier use finds its binding.
type ref struct {
	slot   int32 // the innermost declaring block's slot in the frame, or -1
	global int32 // the name's slot in the globals frame, or -1
	fn     int32 // the defined function the name calls, or -1
	seen   bool  // the resolver has visited the identifier
}

var noRef = ref{slot: -1, global: -1, fn: -1}

// frame is one call's storage: a binding per slot of its function.
type frame struct {
	slots []binding
	// outer links each slot to the slot of the next enclosing block that
	// declares the same name, or -1.
	outer []int32
}

// funcInfo is a defined function's frame layout.
type funcInfo struct {
	decl   *cast.FuncDecl
	params []int32 // each parameter's slot
	outer  []int32 // the frame's outer links; one per slot
}

// resolution is the resolver's result for one Run.
type resolution struct {
	refs  []ref                   // by Ident.ID
	decls map[*cast.VarDecl]int32 // a local declaration's slot
	funcs []funcInfo
	main  int32
	// globals is the globals frame; globalSlots gives each of the file's
	// Globals its slot.
	globals     []binding
	globalSlots []int32
	// watch, capture and rev resolve Watch, CaptureNames and
	// ReverseIndVar at the traced loop.
	watch, capture []ref
	rev            ref
}

// symbol is what the resolver knows of one name while it walks the file.
type symbol struct {
	global int32 // the global's slot, or -1
	fn     int32 // the defined function's index (the last definition), or -1
	inner  int32 // the innermost stack entry that declares the name, or -1
}

// named is one local name on the resolver's stack.
type named struct {
	sym  int32
	slot int32
	prev int32 // the entry of the same name this one shadows, or -1
}

type resolver struct {
	in  *Interp
	res *resolution
	// syms numbers the file's names once per resolve, so that each name a
	// walk meets costs one hash.
	syms    map[string]int32
	symbols []symbol
	// stack holds the names of the current function's enclosing blocks,
	// innermost last.
	stack []named
	// outer holds every function's outer links, the current one's from
	// base on.
	outer []int32
	base  int
	decls []*cast.VarDecl // block's scratch
	nodes []cast.Node     // expr's scratch
	err   error
}

// resolve lays out the interpreter's file for one Run into in.res. It
// fails on an identifier whose ID is out of range or shared with another,
// which only a hand-built AST has.
func (in *Interp) resolve() error {
	f := in.file
	nfuncs, nparams := 0, 0
	for _, fn := range f.Funcs {
		if fn.Body != nil {
			nfuncs++
			nparams += len(fn.Params)
		}
	}
	refs := make([]ref, f.Idents+len(in.CaptureNames)+len(in.Watch))
	for i := range refs {
		refs[i] = noRef
	}
	res := &in.res
	*res = resolution{
		refs:        refs[:f.Idents],
		capture:     refs[f.Idents : f.Idents+len(in.CaptureNames)],
		watch:       refs[f.Idents+len(in.CaptureNames):],
		rev:         noRef,
		decls:       map[*cast.VarDecl]int32{},
		funcs:       make([]funcInfo, 0, nfuncs),
		main:        -1,
		globalSlots: make([]int32, len(f.Globals)),
	}
	r := resolver{in: in, res: res, syms: make(map[string]int32, nfuncs+len(f.Globals))}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		i, si := int32(len(res.funcs)), r.sym(fn.Name)
		res.funcs = append(res.funcs, funcInfo{decl: fn})
		r.symbols[si].fn = i
		if fn.Name == "main" {
			res.main = i
		}
	}
	nglobals := int32(0)
	for i, g := range f.Globals {
		si := r.sym(g.Name)
		s := &r.symbols[si]
		if s.global < 0 {
			s.global = nglobals
			nglobals++
		}
		res.globalSlots[i] = s.global
	}
	res.globals = make([]binding, nglobals)
	for _, g := range f.Globals {
		r.declExprs(g)
	}
	params := make([]int32, 0, nparams)
	for i := range res.funcs {
		fi := &res.funcs[i]
		r.base = len(r.outer)
		for _, p := range fi.decl.Params {
			params = append(params, r.slotFor(p.Name, 0))
		}
		fi.params = params[len(params)-len(fi.decl.Params):]
		r.stmt(fi.decl.Body)
		r.pop(0)
		fi.outer = r.outer[r.base:len(r.outer):len(r.outer)]
	}
	return r.err
}

func (r *resolver) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &ErrUnsupported{What: fmt.Sprintf(format, args...)}
	}
}

// sym returns the number of name, numbering it on first sight.
func (r *resolver) sym(name string) int32 {
	if i, ok := r.syms[name]; ok {
		return i
	}
	i := int32(len(r.symbols))
	r.syms[name] = i
	r.symbols = append(r.symbols, symbol{global: -1, fn: -1, inner: -1})
	return i
}

// lookup resolves a name at the current point of the walk.
func (r *resolver) lookup(name string) ref {
	si := r.sym(name)
	s := r.symbols[si]
	out := ref{slot: -1, global: s.global, fn: s.fn}
	if s.inner >= 0 {
		out.slot = r.stack[s.inner].slot
	}
	return out
}

// slotFor returns the slot of name in the block whose names begin at
// stack index mark. A name the block has not declared yet gets a fresh
// slot, linked to the same name's slot in the nearest enclosing block.
func (r *resolver) slotFor(name string, mark int) int32 {
	si := r.sym(name)
	inner := r.symbols[si].inner
	if int(inner) >= mark {
		return r.stack[inner].slot
	}
	link := int32(-1)
	if inner >= 0 {
		link = r.stack[inner].slot
	}
	slot := int32(len(r.outer) - r.base)
	r.outer = append(r.outer, link)
	r.symbols[si].inner = int32(len(r.stack))
	r.stack = append(r.stack, named{sym: si, slot: slot, prev: inner})
	return slot
}

// pop ends the block whose names begin at stack index mark.
func (r *resolver) pop(mark int) {
	for i := len(r.stack) - 1; i >= mark; i-- {
		e := r.stack[i]
		r.symbols[e.sym].inner = e.prev
	}
	r.stack = r.stack[:mark]
}

// owned appends the declarations that bind in the block holding s: its
// own, and those of the if, while and do bodies it holds that are not
// blocks themselves.
func owned(s cast.Stmt, out []*cast.VarDecl) []*cast.VarDecl {
	switch x := s.(type) {
	case *cast.DeclStmt:
		out = append(out, x.Decls...)
	case *cast.If:
		out = owned(x.Then, out)
		out = owned(x.Else, out)
	case *cast.While:
		out = owned(x.Body, out)
	case *cast.DoWhile:
		out = owned(x.Body, out)
	}
	return out
}

// block resolves a compound statement's items, or a for statement: it
// gives the block a slot for each name its declarations use, then
// resolves the statements.
func (r *resolver) block(items []cast.Stmt, loop *cast.For) {
	decls := r.decls[:0]
	if loop != nil {
		decls = owned(loop.Init, decls)
		decls = owned(loop.Body, decls)
	}
	for _, it := range items {
		decls = owned(it, decls)
	}
	mark := len(r.stack)
	for _, d := range decls {
		r.res.decls[d] = r.slotFor(d.Name, mark)
	}
	r.decls = decls[:0]
	if loop != nil {
		if loop == r.in.TraceLoop {
			r.traced()
		}
		r.stmt(loop.Init)
		r.expr(loop.Cond)
		r.expr(loop.Post)
		r.stmt(loop.Body)
	}
	for _, it := range items {
		r.stmt(it)
	}
	r.pop(mark)
}

// traced resolves the names the traced loop looks up at each entry.
func (r *resolver) traced() {
	for i, w := range r.in.Watch {
		r.res.watch[i] = r.lookup(w.Name)
	}
	for i, name := range r.in.CaptureNames {
		r.res.capture[i] = r.lookup(name)
	}
	r.res.rev = r.lookup(r.in.ReverseIndVar)
}

func (r *resolver) stmt(s cast.Stmt) {
	switch x := s.(type) {
	case *cast.Compound:
		r.block(x.Items, nil)
	case *cast.For:
		r.block(nil, x)
	case *cast.Switch:
		r.expr(x.Cond)
		if body, ok := x.Body.(*cast.Compound); ok {
			r.block(body.Items, nil)
		} else {
			r.stmt(x.Body) // never runs: the switch fails first
		}
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			r.declExprs(d)
		}
	case *cast.ExprStmt:
		r.expr(x.X)
	case *cast.If:
		r.expr(x.Cond)
		r.stmt(x.Then)
		r.stmt(x.Else)
	case *cast.While:
		r.expr(x.Cond)
		r.stmt(x.Body)
	case *cast.DoWhile:
		r.stmt(x.Body)
		r.expr(x.Cond)
	case *cast.Return:
		r.expr(x.X)
	case *cast.Case:
		r.expr(x.Val)
	}
}

func (r *resolver) declExprs(d *cast.VarDecl) {
	for _, e := range d.ArrayDims {
		r.expr(e)
	}
	r.expr(d.Init)
}

// expr resolves every identifier in e.
func (r *resolver) expr(e cast.Expr) {
	if e == nil {
		return
	}
	nodes := append(r.nodes[:0], e)
	for len(nodes) > 0 {
		n := nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		if id, ok := n.(*cast.Ident); ok {
			r.use(id)
		}
		if n != nil {
			nodes = cast.AppendChildren(n, nodes)
		}
	}
	r.nodes = nodes
}

func (r *resolver) use(id *cast.Ident) {
	if id.ID < 0 || id.ID >= len(r.res.refs) {
		r.fail("identifier %s has ID %d, outside the file's %d identifiers", id.Name, id.ID, len(r.res.refs))
		return
	}
	ref := &r.res.refs[id.ID]
	if ref.seen {
		r.fail("identifier %s shares ID %d with another", id.Name, id.ID)
		return
	}
	*ref = r.lookup(id.Name)
	ref.seen = true
}
