package cast

import "sync"

// This file is the allocation-free traversal layer. AppendChildren lists a
// node's children into a caller-owned buffer, and Walk runs on a pooled
// stack, so steady-state traversal allocates nothing.

// AppendChildren appends n's children to dst in source order: its child
// fields in declaration order, optional ones skipped when nil, except that
// a File lists Globals before Funcs and leaves out Structs. Leaves
// (identifiers, literals, Param, Label, Goto, Empty, PragmaStmt, Break and
// Continue) have no case. TestAppendChildrenMatchesChildren reads the
// expected list off the struct fields.
//
//graph2lint:noalloc
func AppendChildren(n Node, dst []Node) []Node {
	switch x := n.(type) {
	case *Unary:
		return append(dst, x.X)
	case *Binary:
		return append(dst, x.X, x.Y)
	case *Assign:
		return append(dst, x.LHS, x.RHS)
	case *Conditional:
		return append(dst, x.Cond, x.Then, x.Else)
	case *Call:
		dst = append(dst, x.Fun)
		for _, a := range x.Args {
			dst = append(dst, a)
		}
		return dst
	case *Index:
		return append(dst, x.Arr, x.Idx)
	case *Member:
		return append(dst, x.X)
	case *CastExpr:
		return append(dst, x.X)
	case *SizeofExpr:
		if x.X != nil {
			dst = append(dst, x.X)
		}
		return dst
	case *Comma:
		return append(dst, x.X, x.Y)
	case *InitList:
		for _, e := range x.Elems {
			dst = append(dst, e)
		}
		return dst
	case *ExprStmt:
		return append(dst, x.X)
	case *DeclStmt:
		for _, d := range x.Decls {
			dst = append(dst, d)
		}
		return dst
	case *Compound:
		for _, s := range x.Items {
			dst = append(dst, s)
		}
		return dst
	case *If:
		dst = append(dst, x.Cond, x.Then)
		if x.Else != nil {
			dst = append(dst, x.Else)
		}
		return dst
	case *For:
		if x.Init != nil {
			dst = append(dst, x.Init)
		}
		if x.Cond != nil {
			dst = append(dst, x.Cond)
		}
		if x.Post != nil {
			dst = append(dst, x.Post)
		}
		return append(dst, x.Body)
	case *While:
		return append(dst, x.Cond, x.Body)
	case *DoWhile:
		return append(dst, x.Body, x.Cond)
	case *Return:
		if x.X != nil {
			dst = append(dst, x.X)
		}
		return dst
	case *Switch:
		return append(dst, x.Cond, x.Body)
	case *Case:
		if x.Val != nil {
			dst = append(dst, x.Val)
		}
		return dst
	case *VarDecl:
		for _, d := range x.ArrayDims {
			if d != nil {
				dst = append(dst, d)
			}
		}
		if x.Init != nil {
			dst = append(dst, x.Init)
		}
		return dst
	case *FuncDecl:
		for _, p := range x.Params {
			dst = append(dst, p)
		}
		if x.Body != nil {
			dst = append(dst, x.Body)
		}
		return dst
	case *StructDef:
		for _, f := range x.Fields {
			dst = append(dst, f)
		}
		return dst
	case *File:
		for _, g := range x.Globals {
			dst = append(dst, g)
		}
		for _, f := range x.Funcs {
			dst = append(dst, f)
		}
		return dst
	}
	return dst
}

// walkStacks recycles traversal stacks across Walk calls.
var walkStacks = sync.Pool{New: func() any {
	s := make([]Node, 0, 64)
	return &s
}}

// Walk calls fn for node and every descendant in depth-first pre-order.
// If fn returns false the node's children are skipped. The traversal
// itself is allocation-free in steady state (pooled stack + AppendChildren).
//
//graph2lint:noalloc
func Walk(n Node, fn func(Node) bool) {
	if n == nil {
		return
	}
	sp := walkStacks.Get().(*[]Node) //graph2lint:allow noalloc -- pooled stack: sync.Pool misses amortize across Walk calls
	s := (*sp)[:0]
	s = append(s, n)
	for len(s) > 0 {
		cur := s[len(s)-1]
		s = s[:len(s)-1]
		if cur == nil || !fn(cur) { //graph2lint:allow noalloc -- visitor callback is the caller's contract; the traversal itself is alloc-free
			continue
		}
		// Children are appended in source order, then the fresh segment is
		// reversed so the stack pops them first-child-first — preserving
		// the recursive pre-order exactly.
		mark := len(s)
		s = AppendChildren(cur, s)
		for i, j := mark, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	*sp = s[:0]
	walkStacks.Put(sp) //graph2lint:allow noalloc -- returning the pooled stack; *[]Node is already boxed by the pool's New
}
