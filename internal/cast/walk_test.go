package cast

import (
	"reflect"
	"testing"
)

var (
	nodeType = reflect.TypeOf((*Node)(nil)).Elem()
	exprType = reflect.TypeOf((*Expr)(nil)).Elem()
)

// fieldChildren is the reference list of n's children, read off its
// struct fields in declaration order: every non-nil field or slice element
// whose type is a node. File is the exception AppendChildren documents:
// Globals come before Funcs, and Structs are not children.
func fieldChildren(n Node) []Node {
	var out []Node
	if f, ok := n.(*File); ok {
		for _, g := range f.Globals {
			out = append(out, g)
		}
		for _, fn := range f.Funcs {
			out = append(out, fn)
		}
		return out
	}
	add := func(v reflect.Value) {
		if v.Type().Implements(nodeType) && !v.IsNil() {
			out = append(out, v.Interface().(Node))
		}
	}
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			for j := 0; j < f.Len(); j++ {
				add(f.Index(j))
			}
		} else {
			add(f)
		}
	}
	return out
}

// walkRec is the recursive pre-order reference the pooled Walk must match.
func walkRec(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range fieldChildren(n) {
		walkRec(c, fn)
	}
}

// filledNodes returns one node of every type with each child field set to
// a fresh node (two per slice), so a child field that AppendChildren
// misses fails the test whether or not a test AST uses it.
func filledNodes() []Node {
	nodes := []Node{
		&Ident{}, &IntLit{}, &FloatLit{}, &CharLit{}, &StringLit{}, &Unary{},
		&Binary{}, &Assign{}, &Conditional{}, &Call{}, &Index{}, &Member{},
		&CastExpr{}, &SizeofExpr{}, &Comma{}, &InitList{},
		&ExprStmt{}, &DeclStmt{}, &Compound{}, &If{}, &For{}, &While{},
		&DoWhile{}, &Return{}, &Break{}, &Continue{}, &Switch{}, &Case{},
		&Label{}, &Goto{}, &Empty{}, &PragmaStmt{},
		&VarDecl{}, &Param{}, &FuncDecl{}, &StructDef{}, &File{},
	}
	// fresh returns a new node of type t: an identifier for an expression
	// slot, an empty statement for a statement slot.
	fresh := func(t reflect.Type) reflect.Value {
		switch {
		case t.Kind() == reflect.Pointer:
			return reflect.New(t.Elem())
		case t == exprType:
			return reflect.ValueOf(&Ident{})
		}
		return reflect.ValueOf(&Empty{})
	}
	for _, n := range nodes {
		v := reflect.ValueOf(n).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch t := f.Type(); {
			case t.Kind() == reflect.Slice && t.Elem().Implements(nodeType):
				f.Set(reflect.Append(reflect.MakeSlice(t, 0, 2), fresh(t.Elem()), fresh(t.Elem())))
			case t.Implements(nodeType):
				f.Set(fresh(t))
			}
		}
	}
	return nodes
}

// buildRichAST constructs (by hand) an AST exercising every node type.
func buildRichAST() Node {
	expr := &Binary{Op: "+", X: &Ident{Name: "a"}, Y: &IntLit{Text: "1", Value: 1}}
	initList := &InitList{Elems: []Expr{&IntLit{Text: "1"}, &FloatLit{Text: "2.0"}}}
	call := &Call{Fun: &Ident{Name: "f"}, Args: []Expr{expr, &CharLit{Text: "'x'"}, &StringLit{Text: `"s"`}}}
	cond := &Conditional{Cond: &Ident{Name: "c"}, Then: &IntLit{}, Else: &IntLit{}}
	idx := &Index{Arr: &Ident{Name: "arr"}, Idx: &Unary{Op: "-", X: &Ident{Name: "i"}}}
	member := &Member{X: &Ident{Name: "p"}, Name: "f"}
	castE := &CastExpr{Type: "double", X: &Comma{X: &Ident{Name: "x"}, Y: &Ident{Name: "y"}}}
	szType := &SizeofExpr{Type: "int"}
	szExpr := &SizeofExpr{X: &Ident{Name: "v"}}
	asn := &Assign{Op: "=", LHS: idx, RHS: &Conditional{Cond: cond, Then: member, Else: castE}}
	decl := &VarDecl{Type: "int", Name: "v", ArrayDims: []Expr{&IntLit{Text: "3"}, nil}, Init: initList}
	declStmt := &DeclStmt{Decls: []*VarDecl{decl, {Type: "int", Name: "w"}}}
	body := &Compound{Items: []Stmt{
		declStmt,
		&ExprStmt{X: asn},
		&If{Cond: expr, Then: &ExprStmt{X: call}, Else: &Break{}},
		&If{Cond: expr, Then: &Empty{}},
		&While{Cond: szType, Body: &Continue{}},
		&DoWhile{Body: &ExprStmt{X: szExpr}, Cond: &Ident{Name: "k"}},
		&Switch{Cond: &Ident{Name: "s"}, Body: &Compound{Items: []Stmt{
			&Case{Val: &IntLit{Text: "1"}},
			&ExprStmt{X: call},
			&Case{},
			&Break{},
		}}},
		&Label{Name: "out"},
		&Goto{Name: "out"},
		&PragmaStmt{Text: "#pragma omp parallel"},
		&Return{X: expr},
		&Return{},
	}}
	loop := &For{
		Init: &ExprStmt{X: &Assign{Op: "=", LHS: &Ident{Name: "i"}, RHS: &IntLit{}}},
		Cond: &Binary{Op: "<", X: &Ident{Name: "i"}, Y: &Ident{Name: "n"}},
		Post: &Unary{Op: "++", X: &Ident{Name: "i"}, Postfix: true},
		Body: body,
	}
	fn := &FuncDecl{
		RetType: "int", Name: "main",
		Params: []*Param{{Type: "int", Name: "argc"}},
		Body:   &Compound{Items: []Stmt{loop, &For{Body: &Empty{}}}},
	}
	return &File{
		Structs: []*StructDef{{Name: "pt", Fields: []*VarDecl{{Type: "int", Name: "x"}}}},
		Globals: []*VarDecl{{Type: "int", Name: "g"}},
		Funcs:   []*FuncDecl{fn, {RetType: "void", Name: "proto"}},
	}
}

// TestAppendChildrenMatchesChildren pins that AppendChildren lists
// exactly the children fieldChildren reads off the struct fields, in the
// same order, for every node type with every child field filled and for
// every node of the rich AST.
func TestAppendChildrenMatchesChildren(t *testing.T) {
	check := func(n Node) {
		want := fieldChildren(n)
		got := AppendChildren(n, nil)
		if len(got) != len(want) {
			t.Fatalf("%T: AppendChildren returned %d children, the fields hold %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%T child %d: AppendChildren and the fields disagree", n, i)
			}
		}
	}
	for _, n := range filledNodes() {
		check(n)
	}
	seen := 0
	walkRec(buildRichAST(), func(n Node) bool {
		seen++
		check(n)
		return true
	})
	if seen < 60 {
		t.Fatalf("rich AST only had %d nodes; extend it when adding node types", seen)
	}
}

// TestWalkMatchesRecursive pins that the pooled iterative Walk visits the
// same nodes in the same order as the recursive reference, including
// subtree skipping.
func TestWalkMatchesRecursive(t *testing.T) {
	root := buildRichAST()
	for _, skipIf := range []func(Node) bool{
		func(Node) bool { return false },
		func(n Node) bool { _, isIf := n.(*If); return isIf },
		func(n Node) bool { _, isFor := n.(*For); return isFor },
	} {
		var want, got []Node
		walkRec(root, func(n Node) bool {
			want = append(want, n)
			return !skipIf(n)
		})
		Walk(root, func(n Node) bool {
			got = append(got, n)
			return !skipIf(n)
		})
		if len(want) != len(got) {
			t.Fatalf("Walk visited %d nodes, reference %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("visit %d: Walk order diverged from reference (%T vs %T)", i, got[i], want[i])
			}
		}
	}
}
