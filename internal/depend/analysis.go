package depend

import (
	"fmt"

	"graph2par/internal/cast"
)

// ArrayDep describes a (possible) cross-iteration dependence on an array.
type ArrayDep struct {
	Base   string
	Why    string
	Result DependenceResult
}

// AnalyzeArrays tests every write/read and write/write pair on each array
// base for loop-carried dependence with respect to the induction variable.
// Non-affine subscripts, pointer-based accesses and accesses escaping into
// calls are conservatively Dependent.
func AnalyzeArrays(body cast.Stmt, iv string) []ArrayDep {
	accesses := CollectAccesses(body)
	byBase := map[string][]Access{}
	inCall := map[string]bool{}
	var order []string
	for _, a := range accesses {
		if len(a.Subscripts) == 0 {
			if a.InCall {
				// A bare identifier passed to a call: if the name is also
				// subscripted in the body it is an array escaping into
				// unknown code, which may read or write any element.
				inCall[a.Base] = true
			}
			continue
		}
		if _, ok := byBase[a.Base]; !ok {
			order = append(order, a.Base)
		}
		byBase[a.Base] = append(byBase[a.Base], a)
	}

	var deps []ArrayDep
	for _, base := range order {
		accs := byBase[base]
		hasWrite := false
		for _, a := range accs {
			if a.Write {
				hasWrite = true
			}
		}
		if inCall[base] {
			// The callee may touch any element in any iteration; even a
			// syntactically read-only array can be written behind the call.
			deps = append(deps, ArrayDep{
				Base:   base,
				Why:    base + ": escapes into a function call",
				Result: Dependent,
			})
			continue
		}
		if !hasWrite {
			continue // read-only array: no dependence
		}
		dep := analyzeBase(base, accs, iv)
		if dep != nil {
			deps = append(deps, *dep)
		}
	}
	return deps
}

func analyzeBase(base string, accs []Access, iv string) *ArrayDep {
	// Pre-compute affine forms; any failure is conservative.
	type aff struct {
		acc   Access
		forms []Affine
		ok    bool
	}
	forms := make([]aff, len(accs))
	for i, a := range accs {
		f := aff{acc: a, ok: true}
		if a.ViaPointer {
			f.ok = false
		}
		for _, s := range a.Subscripts {
			af, ok := AffineOf(s)
			if !ok {
				f.ok = false
				break
			}
			f.forms = append(f.forms, af)
		}
		forms[i] = f
	}
	worst := Independent
	why := ""
	for i := range forms {
		for j := range forms {
			if i > j {
				continue
			}
			if i == j && !forms[i].acc.Write {
				// self-pair only matters for writes (WAW across iterations)
				continue
			}
			a, b := forms[i], forms[j]
			if !a.acc.Write && !b.acc.Write {
				continue
			}
			var r DependenceResult
			switch {
			case !a.ok || !b.ok:
				r = Dependent
				why = fmt.Sprintf("%s: non-affine subscript", base)
			case len(a.forms) != len(b.forms):
				r = Dependent
				why = fmt.Sprintf("%s: mixed dimensionality", base)
			default:
				r = TestSubscriptVectors(a.forms, b.forms, iv)
				if r == Dependent {
					why = fmt.Sprintf("%s: possible cross-iteration overlap", base)
				}
			}
			if r > worst {
				worst = r
			}
		}
	}
	if worst == Dependent {
		return &ArrayDep{Base: base, Why: why, Result: worst}
	}
	return nil
}

// TestSubscriptVectors applies the per-dimension pair test to two equal-
// length subscript vectors of the same (or an as-if-aliased) array. A
// dependence requires the subscripts to coincide in EVERY dimension for
// some iteration pair (i1, i2): one Independent dimension rules it out
// entirely, and one SameIteration dimension (coincidence only when
// i1 == i2) confines any overlap to within an iteration — so a[i][j]
// written under an outer i-loop carries no cross-i dependence regardless
// of the j dimension. The verifier's alias check reuses this for pairs of
// distinct pointer parameters treated as one array.
func TestSubscriptVectors(f, g []Affine, iv string) DependenceResult {
	anySame := false
	for d := range f {
		switch TestSubscriptPair(f[d], g[d], iv) {
		case Independent:
			return Independent
		case SameIteration:
			anySame = true
		}
	}
	if anySame {
		return SameIteration
	}
	return Dependent
}

// LoopExits returns the statements that leave a loop body early, in walk
// order: each break that targets the loop itself, and every goto and
// return. OpenMP's canonical loop form forbids all three, so every tool
// rejects a loop that has one, and the verifier reports each.
func LoopExits(body cast.Stmt) []cast.Stmt {
	var exits []cast.Stmt
	var walk func(n cast.Node, nested bool)
	walk = func(n cast.Node, nested bool) {
		switch x := n.(type) {
		case nil:
			return
		case *cast.For, *cast.While, *cast.DoWhile, *cast.Switch:
			nested = true // a break in here targets x
		case *cast.Break:
			if !nested {
				exits = append(exits, x)
			}
			return
		case *cast.Goto:
			exits = append(exits, x)
			return
		case *cast.Return:
			exits = append(exits, x)
			return
		}
		for _, ch := range cast.AppendChildren(n, nil) {
			walk(ch, nested)
		}
	}
	walk(body, false)
	return exits
}
