package cinterp

import (
	"fmt"

	"graph2par/internal/cast"
	"strings"
)

// structObj is one struct value: a scalar cell per field of its
// definition, in field order. Each field has its own trace address, so
// the dynamic tool sees per-field dependences exactly like scalar ones.
type structObj struct {
	def    *cast.StructDef
	fields []*cell
}

// field returns the cell of the field called name; the last one when the
// definition repeats the name.
func (o *structObj) field(name string) (*cell, bool) {
	for i := len(o.fields) - 1; i >= 0; i-- {
		if o.def.Fields[i].Name == name {
			return o.fields[i], true
		}
	}
	return nil, false
}

// structArray is a dense array of struct values.
type structArray struct {
	dims  []int64
	elems []*structObj
}

func (sa *structArray) flatten(idx []int64) (int64, error) {
	if len(idx) != len(sa.dims) {
		return 0, fmt.Errorf("struct array rank mismatch: %d subscripts, %d dims", len(idx), len(sa.dims))
	}
	var flat int64
	for d, i := range idx {
		if i < 0 || i >= sa.dims[d] {
			return 0, fmt.Errorf("index %d out of bounds [0,%d)", i, sa.dims[d])
		}
		flat = flat*sa.dims[d] + i
	}
	return flat, nil
}

// structDef looks up a `struct X` definition in the interpreted file.
func (in *Interp) structDef(typ string) (*cast.StructDef, bool) {
	name, ok := strings.CutPrefix(typ, "struct ")
	if !ok {
		return nil, false
	}
	def := in.file.StructByName(name)
	return def, def != nil
}

// newStructObj allocates one struct value from its definition.
func (in *Interp) newStructObj(def *cast.StructDef) (*structObj, error) {
	obj := &structObj{def: def, fields: make([]*cell, 0, len(def.Fields))}
	for _, f := range def.Fields {
		if f.Pointer > 0 || len(f.ArrayDims) > 0 {
			return nil, &ErrUnsupported{What: "non-scalar struct field " + f.Name}
		}
		if _, isNested := in.structDef(f.Type); isNested {
			return nil, &ErrUnsupported{What: "nested struct field " + f.Name}
		}
		var v Value
		if typeIsFloat(f.Type) {
			v = FloatVal(0)
		}
		obj.fields = append(obj.fields, in.newCell(v))
	}
	return obj, nil
}

// declareStruct allocates `struct X name` or `struct X name[dims]` and
// binds it to slot.
func (in *Interp) declareStruct(fr *frame, d *cast.VarDecl, def *cast.StructDef, slot *binding) error {
	if d.Pointer > 0 {
		return &ErrUnsupported{What: "pointer to struct"}
	}
	if len(d.ArrayDims) == 0 {
		obj, err := in.newStructObj(def)
		if err != nil {
			return err
		}
		*slot = binding{sobj: obj}
		return nil
	}
	dims := make([]int64, len(d.ArrayDims))
	total := int64(1)
	for i, de := range d.ArrayDims {
		if de == nil {
			return &ErrUnsupported{What: "unsized struct array"}
		}
		v, err := in.eval(fr, de)
		if err != nil {
			return err
		}
		dims[i] = v.AsInt()
		if dims[i] <= 0 {
			return fmt.Errorf("non-positive struct array dimension %d", dims[i])
		}
		total *= dims[i]
		if total > 200_000 {
			return &ErrUnsupported{What: "struct array too large for interpretation"}
		}
	}
	sa := &structArray{dims: dims, elems: make([]*structObj, total)}
	for i := range sa.elems {
		obj, err := in.newStructObj(def)
		if err != nil {
			return err
		}
		sa.elems[i] = obj
	}
	*slot = binding{sarr: sa}
	return nil
}

// evalStructObj resolves an expression denoting a struct value: a struct
// variable or a subscripted struct array.
func (in *Interp) evalStructObj(fr *frame, e cast.Expr) (*structObj, error) {
	switch x := e.(type) {
	case *cast.Ident:
		b, ok := in.lookup(fr, x)
		if !ok {
			return nil, &ErrUnsupported{What: "undeclared variable " + x.Name}
		}
		if b.sobj == nil {
			return nil, &ErrUnsupported{What: x.Name + " is not a struct value"}
		}
		return b.sobj, nil
	case *cast.Index:
		var subsBuf [maxSubscripts]cast.Expr
		base, subs := rootIndex(x, subsBuf[:0])
		id, ok := base.(*cast.Ident)
		if !ok {
			return nil, &ErrUnsupported{What: "complex struct array base"}
		}
		b, ok := in.lookup(fr, id)
		if !ok {
			return nil, &ErrUnsupported{What: "undeclared array " + id.Name}
		}
		if b.sarr == nil {
			return nil, &ErrUnsupported{What: id.Name + " is not a struct array"}
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
				return nil, err
			}
			idx[i] = v.AsInt()
		}
		flat, err := b.sarr.flatten(idx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id.Name, err)
		}
		return b.sarr.elems[flat], nil
	default:
		return nil, &ErrUnsupported{What: fmt.Sprintf("struct expression %T", e)}
	}
}

// memberLValue resolves x.f (dot form only; -> needs pointers).
func (in *Interp) memberLValue(fr *frame, m *cast.Member) (lvalue, error) {
	if m.Arrow {
		return lvalue{}, &ErrUnsupported{What: "-> member access (pointers)"}
	}
	obj, err := in.evalStructObj(fr, m.X)
	if err != nil {
		return lvalue{}, err
	}
	c, ok := obj.field(m.Name)
	if !ok {
		return lvalue{}, fmt.Errorf("no field %q", m.Name)
	}
	return lvalue{cell: c}, nil
}
