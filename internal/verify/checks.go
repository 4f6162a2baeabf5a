package verify

import (
	"fmt"
	"sort"

	"graph2par/internal/cast"
	"graph2par/internal/clex"
	"graph2par/internal/depend"
)

// ---------------------------------------------------------------------------
// structure: canonical loop form and structural legality

func checkStructure(p *Pass) {
	if !p.IsFor {
		p.report("structure", Unsafe,
			"worksharing requires a canonical for loop (while/do-while cannot be parallelized)",
			p.Loop.Pos())
		return
	}
	if !p.Info.Canonical {
		p.report("structure", Unknown,
			"loop is not in canonical form (induction variable, bound or stride not recognized)",
			p.Loop.Pos())
	}
	scanEscapes(p)
	if iv := p.Info.IndVar; iv != "" {
		for _, a := range p.Accesses {
			if a.Base == iv && a.Write && len(a.Subscripts) == 0 && !a.ViaPointer {
				p.report("structure", Unsafe,
					fmt.Sprintf("loop body modifies the induction variable %q", iv),
					nodePos(a.Node, p.Loop))
				break
			}
		}
	}
	if p.Pragma != nil && hasWord(p.Pragma.Clauses, "ordered") {
		scanContinue(p)
	}
}

// scanEscapes flags each statement that leaves the loop body early
// (depend.LoopExits): a break targeting this loop, and any goto or return.
// Each finding points at the offending statement.
func scanEscapes(p *Pass) {
	for _, exit := range depend.LoopExits(p.Body) {
		switch x := exit.(type) {
		case *cast.Break:
			p.report("structure", Unsafe,
				"break escapes the loop: the iteration count must be computable on entry", x.P)
		case *cast.Goto:
			p.report("structure", Unsafe,
				fmt.Sprintf("goto %s leaves structured control flow", x.Name), x.P)
		case *cast.Return:
			p.report("structure", Unsafe, "return escapes the loop body", x.P)
		}
	}
}

// scanContinue flags a continue that targets the parallel loop while the
// directive carries an ordered clause: the skipped iteration never reaches
// its ordered construct, deadlocking the successors. The depth counter
// tracks loops only — a continue inside a nested switch still targets the
// enclosing loop.
func scanContinue(p *Pass) {
	var walk func(n cast.Node, depth int)
	walk = func(n cast.Node, depth int) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *cast.For, *cast.While, *cast.DoWhile:
			depth++
		case *cast.Continue:
			if depth == 0 {
				p.report("structure", Unsafe,
					"continue under an ordered clause skips the iteration's ordered construct", x.P)
			}
			return
		}
		for _, ch := range cast.AppendChildren(n, nil) {
			walk(ch, depth)
		}
	}
	walk(p.Body, 0)
}

// ---------------------------------------------------------------------------
// dependence: loop-carried dependence re-verification

func checkDependence(p *Pass) {
	if !p.IsFor || !p.Info.Canonical || p.Body == nil {
		return // structure already condemned the loop
	}
	iv := p.Info.IndVar
	for _, name := range keysSorted(p.Scalars) {
		if p.Scalars[name] == depend.ScalarCarried {
			p.report("dependence", Unsafe,
				fmt.Sprintf("loop-carried dependence on scalar %q (read before written each iteration)", name),
				p.scalarPos(name))
		}
	}
	for _, d := range depend.AnalyzeArrays(p.Body, iv) {
		if d.Result == depend.Dependent {
			p.report("dependence", Unsafe, d.Why, p.arrayPos(d.Base))
		}
	}
}

// ---------------------------------------------------------------------------
// clauses: the declared private/reduction lists must cover exactly what
// the dependence analysis derives

// ClauseSet is what a worksharing directive on one loop must declare.
// Every list is sorted, and none names the induction variable or a
// variable declared in the body: each iteration owns those already.
type ClauseSet struct {
	// Reductions are the recognized reduction updates whose scalar is
	// classified a reduction, by variable.
	Reductions []depend.ReductionOp
	// Private are the scalars each iteration writes before it reads them.
	Private []string
	// FirstPrivate are the scalars privatizable only when a nested or
	// conditional write counts: an iteration that skips the write must
	// see the original value.
	FirstPrivate []string
}

// Clauses derives the clause lists of a for or while loop. It is the one
// rule: the clauses check enforces it, the rewriter renders it into every
// directive it derives (the engine's suggestion among them), and
// StaticVerify reports it.
func Clauses(loop cast.Stmt) ClauseSet {
	body, info, _ := loopParts(loop)
	if body == nil {
		return ClauseSet{}
	}
	iv := info.IndVar
	reds, privatized := requiredClauses(iv, depend.ClassifyScalars(body, iv, true),
		depend.FindReductions(body, map[string]bool{iv: true}), cast.DeclaredNames(body))
	cs := ClauseSet{Reductions: reds}
	strict := depend.ClassifyScalars(body, iv, false)
	for _, name := range privatized {
		if strict[name] == depend.ScalarPrivate {
			cs.Private = append(cs.Private, name)
		} else {
			cs.FirstPrivate = append(cs.FirstPrivate, name)
		}
	}
	return cs
}

// requiredClauses picks the required lists out of one loop's facts: the
// reductions whose scalar class is reduction, and the privatized scalars
// (private and firstprivate alike) in sorted order, leaving out the
// induction variable and body-declared names. checkClauses calls it on
// the facts its pass already holds.
func requiredClauses(iv string, scalars map[string]depend.ScalarClass, reds []depend.ReductionOp,
	declared map[string]bool) (required []depend.ReductionOp, privatized []string) {
	for _, r := range reds {
		if scalars[r.Var] == depend.ScalarReduction {
			required = append(required, r)
		}
	}
	for _, name := range keysSorted(scalars) {
		if scalars[name] == depend.ScalarPrivate && name != iv && !declared[name] {
			privatized = append(privatized, name)
		}
	}
	return required, privatized
}

func checkClauses(p *Pass) {
	if p.Pragma == nil {
		return // derive mode: no clause lists to verify
	}
	if !p.Pragma.IsOMP {
		p.report("clauses", Unknown, "directive is not an OpenMP pragma", p.Loop.Pos())
		return
	}
	if !p.Pragma.ParallelFor {
		p.report("clauses", Unknown, "directive carries no loop worksharing construct", p.Loop.Pos())
		return
	}
	if !p.IsFor || p.Body == nil {
		return // structure already condemned the loop
	}
	iv := p.Info.IndVar

	// Required clause lists: the rule Clauses derives, from the pass facts.
	reds, privatized := requiredClauses(iv, p.Scalars, p.Reds, p.Declared)
	reqRed := map[string]string{}
	for _, r := range reds {
		reqRed[r.Var] = r.Op
	}
	reqPriv := map[string]bool{}
	for _, name := range privatized {
		reqPriv[name] = true
	}

	// Declared clause lists.
	gotRed := map[string]string{}
	for _, op := range keysSorted(p.Pragma.ReductionOps) {
		for _, v := range p.Pragma.ReductionOps[op] {
			gotRed[v] = op
		}
	}
	gotPriv := map[string]bool{}
	for _, v := range p.Pragma.PrivateVars {
		gotPriv[v] = true
	}

	for _, r := range reds {
		v, op := r.Var, r.Op
		gop, ok := gotRed[v]
		switch {
		case !ok:
			p.report("clauses", Unsafe,
				fmt.Sprintf("missing reduction(%s:%s) clause for a recognized reduction update", op, v),
				p.scalarPos(v))
		case gop != op:
			p.report("clauses", Unsafe,
				fmt.Sprintf("reduction operator mismatch for %q: declared %q, the update uses %q", v, gop, op),
				p.scalarPos(v))
		}
	}
	for _, v := range keysSorted(gotRed) {
		if _, ok := reqRed[v]; ok {
			continue
		}
		if p.Scalars[v] == depend.ScalarCarried {
			p.report("clauses", Unsafe,
				fmt.Sprintf("declared reduction %q has no recognized reduction update; its dependence is loop-carried", v),
				p.scalarPos(v))
		} else {
			p.report("clauses", Unknown,
				fmt.Sprintf("reduction clause names %q, which has no reduction update in the body", v),
				p.scalarPos(v))
		}
	}

	for _, v := range privatized {
		if !gotPriv[v] {
			p.report("clauses", Unsafe,
				fmt.Sprintf("scalar %q is written before read each iteration and must be private", v),
				p.scalarPos(v))
		}
	}
	for _, v := range keysSorted(gotPriv) {
		if reqPriv[v] || v == iv {
			continue // the induction variable is predetermined private
		}
		cl, used := p.Scalars[v]
		switch {
		case !used:
			p.report("clauses", Unknown,
				fmt.Sprintf("private(%s) names a variable the loop never uses", v), p.Loop.Pos())
		case p.Declared[v]:
			p.report("clauses", Unknown,
				fmt.Sprintf("private(%s) names a loop-local variable; no clause is needed", v),
				p.scalarPos(v))
		case cl == depend.ScalarCarried:
			p.report("clauses", Unsafe,
				fmt.Sprintf("private(%s) would sever a loop-carried value", v), p.scalarPos(v))
		case cl == depend.ScalarReduction:
			p.report("clauses", Unsafe,
				fmt.Sprintf("reduction variable %q must not also be private", v), p.scalarPos(v))
		case cl == depend.ScalarReadOnly:
			p.report("clauses", Unsafe,
				fmt.Sprintf("private(%s) leaves a read-only input uninitialized inside the region", v),
				p.scalarPos(v))
		}
	}
}

// ---------------------------------------------------------------------------
// alias: two arrays written in the body that could be the same pointer

func checkAlias(p *Pass) {
	if p.Fn == nil || !p.IsFor || !p.Info.Canonical || p.Body == nil {
		return
	}
	iv := p.Info.IndVar
	ptr := map[string]bool{}
	for _, prm := range p.Fn.Params {
		if prm.Pointer > 0 || prm.ArrayDims > 0 {
			ptr[prm.Name] = true
		}
	}
	if len(ptr) < 2 {
		return
	}
	type baseAcc struct {
		name    string
		accs    []depend.Access
		written bool
	}
	byBase := map[string]*baseAcc{}
	var order []string
	for _, a := range p.Accesses {
		if len(a.Subscripts) == 0 || !ptr[a.Base] {
			continue
		}
		b := byBase[a.Base]
		if b == nil {
			b = &baseAcc{name: a.Base}
			byBase[a.Base] = b
			order = append(order, a.Base)
		}
		b.accs = append(b.accs, a)
		if a.Write {
			b.written = true
		}
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := byBase[order[i]], byBase[order[j]]
			if !a.written && !b.written {
				continue
			}
			if hz, pos := aliasHazard(a.accs, b.accs, iv, p.Loop.Pos()); hz {
				p.report("alias", Unknown,
					fmt.Sprintf("arrays %q and %q are pointer parameters of %q and may alias; their accesses could overlap across iterations",
						a.name, b.name, p.Fn.Name),
					pos)
			}
		}
	}
}

// aliasHazard tests every cross pair of accesses of two bases as if they
// addressed the same array: a Dependent pair under that assumption means
// aliasing parameters would introduce a cross-iteration dependence. A
// SameIteration-only overlap is harmless — even aliased, each iteration
// stays inside its own cells.
func aliasHazard(as, bs []depend.Access, iv string, fallback clex.Pos) (bool, clex.Pos) {
	for _, x := range as {
		for _, y := range bs {
			if !x.Write && !y.Write {
				continue
			}
			pos := fallback
			if x.Write && x.Node != nil {
				pos = x.Node.Pos()
			} else if y.Node != nil {
				pos = y.Node.Pos()
			}
			if x.ViaPointer || y.ViaPointer || len(x.Subscripts) != len(y.Subscripts) {
				return true, pos
			}
			fx, ok := affineForms(x)
			if !ok {
				return true, pos
			}
			fy, ok := affineForms(y)
			if !ok {
				return true, pos
			}
			if depend.TestSubscriptVectors(fx, fy, iv) == depend.Dependent {
				return true, pos
			}
		}
	}
	return false, fallback
}

// affineForms lifts every subscript of an access to affine form.
func affineForms(a depend.Access) ([]depend.Affine, bool) {
	out := make([]depend.Affine, 0, len(a.Subscripts))
	for _, s := range a.Subscripts {
		f, ok := depend.AffineOf(s)
		if !ok {
			return nil, false
		}
		out = append(out, f)
	}
	return out, true
}

// ---------------------------------------------------------------------------
// shared position helpers

// nodePos returns the node's position, falling back to the loop's.
func nodePos(n cast.Node, loop cast.Stmt) clex.Pos {
	if n != nil {
		return n.Pos()
	}
	return loop.Pos()
}

// scalarPos locates the first body access of a scalar for diagnostics.
func (p *Pass) scalarPos(name string) clex.Pos {
	for _, a := range p.Accesses {
		if a.Base == name && len(a.Subscripts) == 0 && a.Node != nil {
			return a.Node.Pos()
		}
	}
	return p.Loop.Pos()
}

// arrayPos locates the first subscripted access of an array base.
func (p *Pass) arrayPos(base string) clex.Pos {
	for _, a := range p.Accesses {
		if a.Base == base && len(a.Subscripts) > 0 && a.Node != nil {
			return a.Node.Pos()
		}
	}
	return p.Loop.Pos()
}

// keysSorted returns map keys in deterministic order; every check that
// walks a map goes through it, which is what makes verdicts byte-identical
// across runs.
func keysSorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
