package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
)

// clausePlan is the static derivation for one for-loop: the full clause
// lists the dependence analysis can justify, the nest depth a collapse may
// cover, a schedule choice, and the variable inventories the dynamic
// validator watches. The rendered pragma is exactly what the verifier is
// asked to gate and, on a Safe verdict, what the splicer emits.
type clausePlan struct {
	iv            string
	privates      []string
	firstprivates []string
	reds          []depend.ReductionOp
	collapse      int
	schedule      string
	pragma        string
	declared      map[string]bool
	scalarNames   []string
	arrayBases    []string
	// atomicBases is filled by the atomic rescue: array bases whose
	// updates the splicer protects with `#pragma omp atomic`.
	atomicBases []string
	// noSIMD suppresses the simd construct word: an atomic region may not
	// sit inside a simd loop.
	noSIMD bool
}

// deriveClauses computes the full static plan for a for-loop.
func deriveClauses(f *cast.For) clausePlan {
	info := depend.ExtractLoop(f)
	iv := info.IndVar
	body := f.Body
	scal := depend.ClassifyScalars(body, iv, true)
	strict := depend.ClassifyScalars(body, iv, false)
	declared := cast.DeclaredNames(body)

	cp := clausePlan{iv: iv, declared: declared}

	// Reduction clauses mirror exactly what the clause-soundness check
	// demands: recognized reduction updates whose overall class is
	// reduction. A body-declared accumulator is loop-local and needs no
	// clause.
	for _, r := range depend.FindReductions(body, map[string]bool{iv: true}) {
		if scal[r.Var] == depend.ScalarReduction {
			cp.reds = append(cp.reds, r)
		}
	}

	// private vs firstprivate: a scalar that is privatizable when nested
	// or conditional writes count (the relaxed classification) but NOT
	// under the strict first-unconditional-write rule is only written on
	// some paths — iterations that skip the write must see the original
	// value, which is precisely firstprivate.
	for name, cl := range scal {
		if name == iv || declared[name] || cl != depend.ScalarPrivate {
			continue
		}
		if strict[name] == depend.ScalarPrivate {
			cp.privates = append(cp.privates, name)
		} else {
			cp.firstprivates = append(cp.firstprivates, name)
		}
	}
	sort.Strings(cp.privates)
	sort.Strings(cp.firstprivates)

	for name := range scal {
		cp.scalarNames = append(cp.scalarNames, name)
	}
	sort.Strings(cp.scalarNames)
	seen := map[string]bool{}
	for _, a := range depend.CollectAccesses(body) {
		if len(a.Subscripts) > 0 && !seen[a.Base] {
			seen[a.Base] = true
			cp.arrayBases = append(cp.arrayBases, a.Base)
		}
	}
	sort.Strings(cp.arrayBases)

	cp.collapse = collapseDepth(f)
	cp.schedule = chooseSchedule(f, cp.collapse)
	cp.pragma = cp.render(body)
	return cp
}

// render assembles the directive: construct words first (a clause must
// never precede them), then collapse, schedule, reductions and the
// privatization clauses.
func (cp *clausePlan) render(body cast.Stmt) string {
	var cats []pragma.Category
	if len(cp.reds) > 0 {
		cats = append(cats, pragma.Reduction)
	}
	if len(cp.privates)+len(cp.firstprivates) > 0 {
		cats = append(cats, pragma.Private)
	}
	if len(cats) == 0 && !cp.noSIMD && cast.CountNodes(body) <= 14 {
		cats = append(cats, pragma.SIMD)
	}
	var b strings.Builder
	b.WriteString(pragma.Construct(cats))
	if cp.collapse >= 2 {
		fmt.Fprintf(&b, " collapse(%d)", cp.collapse)
	}
	b.WriteString(" schedule(" + cp.schedule + ")")
	for _, r := range cp.reds {
		b.WriteString(" reduction(" + r.Op + ":" + r.Var + ")")
	}
	if len(cp.firstprivates) > 0 {
		b.WriteString(" firstprivate(" + strings.Join(cp.firstprivates, ", ") + ")")
	}
	if len(cp.privates) > 0 {
		b.WriteString(" private(" + strings.Join(cp.privates, ", ") + ")")
	}
	return b.String()
}

// collapseDepth measures how many loops of a perfect, rectangular,
// canonical nest a collapse clause may legally cover: each level's body
// must be exactly the next loop (or a block holding only it), every inner
// loop canonical and pragma-free, and no inner bound or stride may read an
// enclosing induction variable.
func collapseDepth(outer *cast.For) int {
	oi := depend.ExtractLoop(outer)
	if !oi.Canonical {
		return 1
	}
	ivs := []string{oi.IndVar}
	depth := 1
	cur := outer
	for {
		inner := soleNestedFor(cur.Body)
		if inner == nil || inner.Pragma != "" {
			return depth
		}
		ii := depend.ExtractLoop(inner)
		if !ii.Canonical {
			return depth
		}
		for _, iv := range ivs {
			if exprReads(ii.Lower, iv) || exprReads(ii.Upper, iv) || ii.StepSym == iv {
				return depth
			}
		}
		ivs = append(ivs, ii.IndVar)
		depth++
		cur = inner
	}
}

// chooseSchedule picks static for rectangular uniform work and dynamic
// when per-iteration cost varies: conditionals, inner while/do loops, a
// non-canonical nested loop, or a triangular inner loop whose bounds read
// an enclosing induction variable.
func chooseSchedule(outer *cast.For, collapse int) string {
	ivs := []string{}
	cur := outer
	for d := 1; d <= collapse && cur != nil; d++ {
		ivs = append(ivs, depend.ExtractLoop(cur).IndVar)
		if d < collapse {
			cur = soleNestedFor(cur.Body)
		}
	}
	body := outer.Body
	if cur != nil {
		body = cur.Body
	}
	irregular := false
	cast.Walk(body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.If, *cast.Switch, *cast.Conditional, *cast.While, *cast.DoWhile:
			irregular = true
		case *cast.For:
			fi := depend.ExtractLoop(x)
			if !fi.Canonical {
				irregular = true
				break
			}
			for _, iv := range ivs {
				if exprReads(fi.Lower, iv) || exprReads(fi.Upper, iv) {
					irregular = true
				}
			}
		}
		return !irregular
	})
	if irregular {
		return "dynamic"
	}
	return "static"
}

// soleNestedFor returns the loop when body is exactly one for-loop,
// directly or as the only statement of a block.
func soleNestedFor(body cast.Stmt) *cast.For {
	switch x := body.(type) {
	case *cast.For:
		return x
	case *cast.Compound:
		if len(x.Items) == 1 {
			if f, ok := x.Items[0].(*cast.For); ok {
				return f
			}
		}
	}
	return nil
}

// exprReads reports whether the expression mentions the variable.
func exprReads(e cast.Expr, name string) bool {
	if e == nil || name == "" {
		return false
	}
	found := false
	cast.Walk(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
