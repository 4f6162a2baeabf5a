package cinterp

import (
	"fmt"
	"strconv"
	"strings"

	"graph2par/internal/cast"
)

// lvalue resolves an expression to a storage location.
type lvalue struct {
	cell *cell
	arr  *array
	elem int64
}

func (in *Interp) load(lv lvalue) (Value, error) {
	if err := in.traceAccess(lv, false); err != nil {
		return Value{}, err
	}
	if lv.cell != nil {
		return lv.cell.val, nil
	}
	return lv.arr.get(lv.elem), nil
}

// store writes lv before profiling the write, so a write that passes
// both the cell budget and the profile bound fails on the cell budget,
// as it does untraced.
func (in *Interp) store(lv lvalue, v Value) error {
	if lv.cell != nil {
		lv.cell.val = v
	} else if err := lv.arr.set(lv.elem, v); err != nil {
		return err
	}
	return in.traceAccess(lv, true)
}

func (in *Interp) evalLValue(fr *frame, e cast.Expr) (lvalue, error) {
	switch x := e.(type) {
	case *cast.Ident:
		b, ok := in.lookup(fr, x)
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
		b, ok := in.lookup(fr, id)
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
			v, err := in.eval(fr, s)
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
		return in.memberLValue(fr, x)
	default:
		return lvalue{}, &ErrUnsupported{What: fmt.Sprintf("lvalue %T", e)}
	}
}

// charValue decodes a character literal's spelling, quotes included, the
// way C does: a C octal escape has one to three digits, and every other
// escape is Go's.
func charValue(text string) int64 {
	body := strings.TrimSuffix(strings.TrimPrefix(text, "'"), "'")
	if len(body) >= 2 && body[0] == '\\' && body[1] >= '0' && body[1] <= '7' {
		var v int64
		for _, c := range body[1:min(len(body), 4)] {
			if c < '0' || c > '7' {
				break
			}
			v = v*8 + int64(c-'0')
		}
		return v
	}
	r, _, _, err := strconv.UnquoteChar(body, '\'')
	if err != nil {
		if body == "" {
			return 0
		}
		return int64(body[0])
	}
	return int64(r)
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

func (in *Interp) eval(fr *frame, e cast.Expr) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *cast.IntLit:
		return IntVal(x.Value), nil
	case *cast.FloatLit:
		return FloatVal(x.Value), nil
	case *cast.CharLit:
		return IntVal(charValue(x.Text)), nil
	case *cast.StringLit:
		return Value{}, &ErrUnsupported{What: "string value"}
	case *cast.Ident:
		lv, err := in.evalLValue(fr, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv)
	case *cast.Index:
		lv, err := in.evalLValue(fr, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv)
	case *cast.Binary:
		// short-circuit for && and ||
		if x.Op == "&&" {
			a, err := in.eval(fr, x.X)
			if err != nil {
				return Value{}, err
			}
			if !a.Truthy() {
				return IntVal(0), nil
			}
			b, err := in.eval(fr, x.Y)
			if err != nil {
				return Value{}, err
			}
			return boolVal(b.Truthy()), nil
		}
		if x.Op == "||" {
			a, err := in.eval(fr, x.X)
			if err != nil {
				return Value{}, err
			}
			if a.Truthy() {
				return IntVal(1), nil
			}
			b, err := in.eval(fr, x.Y)
			if err != nil {
				return Value{}, err
			}
			return boolVal(b.Truthy()), nil
		}
		a, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		b, err := in.eval(fr, x.Y)
		if err != nil {
			return Value{}, err
		}
		return binop(x.Op, a, b)
	case *cast.Unary:
		return in.evalUnary(fr, x)
	case *cast.Assign:
		return in.evalAssign(fr, x)
	case *cast.Conditional:
		c, err := in.eval(fr, x.Cond)
		if err != nil {
			return Value{}, err
		}
		if c.Truthy() {
			return in.eval(fr, x.Then)
		}
		return in.eval(fr, x.Else)
	case *cast.Call:
		return in.evalCall(fr, x)
	case *cast.CastExpr:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return coerce(v, typeIsFloat(x.Type)), nil
	case *cast.SizeofExpr:
		return IntVal(8), nil
	case *cast.Comma:
		if _, err := in.eval(fr, x.X); err != nil {
			return Value{}, err
		}
		return in.eval(fr, x.Y)
	case *cast.Member:
		lv, err := in.memberLValue(fr, x)
		if err != nil {
			return Value{}, err
		}
		return in.load(lv)
	default:
		return Value{}, &ErrUnsupported{What: fmt.Sprintf("expression %T", e)}
	}
}

func (in *Interp) evalUnary(fr *frame, x *cast.Unary) (Value, error) {
	switch x.Op {
	case "-":
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.IsFloat {
			return FloatVal(-v.F), nil
		}
		return IntVal(-v.I), nil
	case "+":
		return in.eval(fr, x.X)
	case "!":
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return boolVal(!v.Truthy()), nil
	case "~":
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return IntVal(^v.AsInt()), nil
	case "++", "--":
		lv, err := in.evalLValue(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := in.load(lv)
		if err != nil {
			return Value{}, err
		}
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

func (in *Interp) evalAssign(fr *frame, x *cast.Assign) (Value, error) {
	// Evaluate RHS before resolving/storing to match C semantics closely
	// enough for dependence tracing (reads precede the store).
	rhs, err := in.eval(fr, x.RHS)
	if err != nil {
		return Value{}, err
	}
	lv, err := in.evalLValue(fr, x.LHS)
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
	old, err := in.load(lv)
	if err != nil {
		return Value{}, err
	}
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

func (in *Interp) evalCall(fr *frame, x *cast.Call) (Value, error) {
	fid, ok := x.Fun.(*cast.Ident)
	if !ok {
		return Value{}, &ErrUnsupported{What: "indirect call"}
	}
	name := fid.Name

	// user-defined function? Arrays pass by reference (C decay), scalars
	// by value, converted to the parameter's type.
	if r := in.res.refs[fid.ID]; r.fn >= 0 {
		fi := &in.res.funcs[r.fn]
		callee := newFrame(fi)
		for i, a := range x.Args {
			var b binding
			if id, ok := a.(*cast.Ident); ok {
				b, _ = in.lookup(fr, id)
			}
			if b.arr == nil {
				v, err := in.eval(fr, a)
				if err != nil {
					return Value{}, err
				}
				if i < len(fi.decl.Params) {
					if p := fi.decl.Params[i]; p.Pointer == 0 && p.ArrayDims == 0 {
						v = coerce(v, typeIsFloat(p.Type))
					}
				}
				b = binding{cell: in.newCell(v)}
			}
			if i < len(fi.params) {
				callee.slots[fi.params[i]] = b
			}
		}
		return in.callFunc(fi, &callee, len(x.Args))
	}

	// builtin / math
	vals := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(fr, a)
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
