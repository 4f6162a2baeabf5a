package cinterp

import (
	"fmt"

	"graph2par/internal/cast"
)

// lvalue resolves an expression to a storage location.
type lvalue struct {
	cell *cell
	arr  *array
	elem int64
}

func (in *Interp) addrOf(lv lvalue) Addr {
	if lv.cell != nil {
		return Addr{Obj: lv.cell.id, Elem: ScalarElem}
	}
	return Addr{Obj: lv.arr.id, Elem: lv.elem}
}

func (in *Interp) load(lv lvalue) Value {
	in.traceAccess(in.addrOf(lv), false)
	if lv.cell != nil {
		return lv.cell.val
	}
	return lv.arr.get(lv.elem)
}

func (in *Interp) store(lv lvalue, v Value) error {
	in.traceAccess(in.addrOf(lv), true)
	if lv.cell != nil {
		lv.cell.val = v
		return nil
	}
	return lv.arr.set(lv.elem, v)
}

func (in *Interp) evalLValue(sc *scope, e cast.Expr) (lvalue, error) {
	switch x := e.(type) {
	case *cast.Ident:
		b, ok := sc.lookup(x.Name)
		if !ok {
			return lvalue{}, &ErrUnsupported{What: "undeclared variable " + x.Name}
		}
		if b.cell != nil {
			return lvalue{cell: b.cell}, nil
		}
		return lvalue{}, fmt.Errorf("array %s used as scalar", x.Name)
	case *cast.Index:
		var subsBuf [maxSubscripts]cast.Expr
		base, subs := rootIndex(x, subsBuf[:0])
		id, ok := base.(*cast.Ident)
		if !ok {
			return lvalue{}, &ErrUnsupported{What: "complex array base"}
		}
		b, ok := sc.lookup(id.Name)
		if !ok {
			return lvalue{}, &ErrUnsupported{What: "undeclared array " + id.Name}
		}
		if b.arr == nil {
			return lvalue{}, &ErrUnsupported{What: "subscript on non-array " + id.Name}
		}
		var idxBuf [maxSubscripts]int64
		idx := idxBuf[:0]
		if len(subs) > len(idxBuf) {
			idx = make([]int64, 0, len(subs))
		}
		idx = idx[:len(subs)]
		for i, s := range subs {
			v, err := in.eval(sc, s)
			if err != nil {
				return lvalue{}, err
			}
			idx[i] = v.AsInt()
		}
		flat, err := b.arr.flatten(idx)
		if err != nil {
			return lvalue{}, fmt.Errorf("%s: %w", id.Name, err)
		}
		return lvalue{arr: b.arr, elem: flat}, nil
	case *cast.Member:
		return in.memberLValue(sc, x)
	default:
		return lvalue{}, &ErrUnsupported{What: fmt.Sprintf("lvalue %T", e)}
	}
}

// maxSubscripts bounds the subscript depth served from stack scratch in
// the per-access hot path; deeper chains fall back to one heap allocation.
const maxSubscripts = 8

// rootIndex peels a[i][j] into (a, [i, j]). The subscript list is written
// into buf (callers pass a stack array's [:0] slice), replacing the old
// prepend-per-level pattern that allocated quadratically on every array
// access the interpreter traced.
func rootIndex(ix *cast.Index, buf []cast.Expr) (cast.Expr, []cast.Expr) {
	depth := 0
	cur := cast.Expr(ix)
	for {
		n, ok := cur.(*cast.Index)
		if !ok {
			break
		}
		depth++
		cur = n.Arr
	}
	if cap(buf) < depth {
		buf = make([]cast.Expr, depth)
	}
	buf = buf[:depth]
	node := cast.Expr(ix)
	for i := depth - 1; i >= 0; i-- {
		n := node.(*cast.Index)
		buf[i] = n.Idx
		node = n.Arr
	}
	return cur, buf
}

func (in *Interp) eval(sc *scope, e cast.Expr) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *cast.IntLit:
		return IntVal(x.Value), nil
	case *cast.FloatLit:
		return FloatVal(x.Value), nil
	case *cast.CharLit:
		if len(x.Text) >= 3 {
			return IntVal(int64(x.Text[1])), nil
		}
		return IntVal(0), nil
	case *cast.StringLit:
		return Value{}, &ErrUnsupported{What: "string value"}
	case *cast.Ident:
		lv, err := in.evalLValue(sc, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv), nil
	case *cast.Index:
		lv, err := in.evalLValue(sc, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv), nil
	case *cast.Binary:
		// short-circuit for && and ||
		if x.Op == "&&" {
			a, err := in.eval(sc, x.X)
			if err != nil {
				return Value{}, err
			}
			if !a.Truthy() {
				return IntVal(0), nil
			}
			b, err := in.eval(sc, x.Y)
			if err != nil {
				return Value{}, err
			}
			return boolVal(b.Truthy()), nil
		}
		if x.Op == "||" {
			a, err := in.eval(sc, x.X)
			if err != nil {
				return Value{}, err
			}
			if a.Truthy() {
				return IntVal(1), nil
			}
			b, err := in.eval(sc, x.Y)
			if err != nil {
				return Value{}, err
			}
			return boolVal(b.Truthy()), nil
		}
		a, err := in.eval(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		b, err := in.eval(sc, x.Y)
		if err != nil {
			return Value{}, err
		}
		return binop(x.Op, a, b)
	case *cast.Unary:
		return in.evalUnary(sc, x)
	case *cast.Assign:
		return in.evalAssign(sc, x)
	case *cast.Conditional:
		c, err := in.eval(sc, x.Cond)
		if err != nil {
			return Value{}, err
		}
		if c.Truthy() {
			return in.eval(sc, x.Then)
		}
		return in.eval(sc, x.Else)
	case *cast.Call:
		return in.evalCall(sc, x)
	case *cast.CastExpr:
		v, err := in.eval(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		return coerce(v, typeIsFloat(x.Type)), nil
	case *cast.SizeofExpr:
		return IntVal(8), nil
	case *cast.Comma:
		if _, err := in.eval(sc, x.X); err != nil {
			return Value{}, err
		}
		return in.eval(sc, x.Y)
	case *cast.Member:
		lv, err := in.memberLValue(sc, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv), nil
	default:
		return Value{}, &ErrUnsupported{What: fmt.Sprintf("expression %T", e)}
	}
}

func (in *Interp) evalUnary(sc *scope, x *cast.Unary) (Value, error) {
	switch x.Op {
	case "-":
		v, err := in.eval(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.IsFloat {
			return FloatVal(-v.F), nil
		}
		return IntVal(-v.I), nil
	case "+":
		return in.eval(sc, x.X)
	case "!":
		v, err := in.eval(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		return boolVal(!v.Truthy()), nil
	case "~":
		v, err := in.eval(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		return IntVal(^v.AsInt()), nil
	case "++", "--":
		lv, err := in.evalLValue(sc, x.X)
		if err != nil {
			return Value{}, err
		}
		old := in.load(lv)
		delta := IntVal(1)
		op := "+"
		if x.Op == "--" {
			op = "-"
		}
		nv, err := binop(op, old, delta)
		if err != nil {
			return Value{}, err
		}
		if err := in.store(lv, nv); err != nil {
			return Value{}, err
		}
		if x.Postfix {
			return old, nil
		}
		return nv, nil
	case "*", "&":
		return Value{}, &ErrUnsupported{What: "pointer operation " + x.Op}
	}
	return Value{}, &ErrUnsupported{What: "unary " + x.Op}
}

func (in *Interp) evalAssign(sc *scope, x *cast.Assign) (Value, error) {
	// Evaluate RHS before resolving/storing to match C semantics closely
	// enough for dependence tracing (reads precede the store).
	rhs, err := in.eval(sc, x.RHS)
	if err != nil {
		return Value{}, err
	}
	lv, err := in.evalLValue(sc, x.LHS)
	if err != nil {
		return Value{}, err
	}
	if x.Op == "=" {
		// preserve the declared kind of the destination
		cur := lv.peek()
		if err := in.store(lv, coerce(rhs, cur.IsFloat)); err != nil {
			return Value{}, err
		}
		return rhs, nil
	}
	old := in.load(lv)
	op := x.Op[:len(x.Op)-1] // "+=" -> "+"
	nv, err := binop(op, old, rhs)
	if err != nil {
		return Value{}, err
	}
	if err := in.store(lv, coerce(nv, old.IsFloat)); err != nil {
		return Value{}, err
	}
	return nv, nil
}

// peek reads a location without tracing (used to learn the stored kind).
func (lv lvalue) peek() Value {
	if lv.cell != nil {
		return lv.cell.val
	}
	return lv.arr.get(lv.elem)
}

func (in *Interp) evalCall(sc *scope, x *cast.Call) (Value, error) {
	name := ""
	if id, ok := x.Fun.(*cast.Ident); ok {
		name = id.Name
	} else {
		return Value{}, &ErrUnsupported{What: "indirect call"}
	}

	// user-defined function?
	if fn, ok := in.funcs[name]; ok {
		args := make([]binding, len(x.Args))
		for i, a := range x.Args {
			// arrays decay to references
			if id, ok := a.(*cast.Ident); ok {
				if b, ok2 := sc.lookup(id.Name); ok2 && b.arr != nil {
					args[i] = b
					continue
				}
			}
			v, err := in.eval(sc, a)
			if err != nil {
				return Value{}, err
			}
			args[i] = binding{cell: in.newCell(v)}
		}
		return in.callFunc(fn, args)
	}

	// builtin / math
	vals := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(sc, a)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	if v, ok, err := mathCall(name, vals); ok {
		return v, err
	}
	return Value{}, &ErrUnsupported{What: "unknown function " + name}
}
