package rewrite

import (
	"fmt"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
	"graph2par/internal/verify"
)

// ClausePlan is the static derivation for one for-loop: the clause lists
// verify.Clauses derives, the nest depth a collapse may cover and a
// schedule choice. Render turns it into the one directive of the loop:
// the verifier gates it, the splicer emits it on a Safe verdict, and the
// engine suggests it.
type ClausePlan struct {
	verify.ClauseSet
	collapse int
	schedule string
	// simdFit marks a body small enough for the simd construct.
	simdFit bool
	// atomicBases is filled by the atomic rescue: array bases whose
	// updates the splicer protects with `#pragma omp atomic`.
	atomicBases []string
	// noSIMD suppresses the simd construct word: an atomic region may not
	// sit inside a simd loop.
	noSIMD bool
}

// DeriveClauses computes the plan for a for-loop.
func DeriveClauses(f *cast.For) ClausePlan {
	cp := ClausePlan{ClauseSet: verify.Clauses(f)}
	cp.collapse = collapseDepth(f)
	cp.schedule = chooseSchedule(f, cp.collapse)
	cp.simdFit = f.Body != nil && cast.CountNodes(f.Body) <= 14
	return cp
}

// Categories lists the pragma categories the rendered directive carries.
func (cp *ClausePlan) Categories() []pragma.Category {
	var cats []pragma.Category
	if len(cp.Reductions) > 0 {
		cats = append(cats, pragma.Reduction)
	}
	if len(cp.Private)+len(cp.FirstPrivate) > 0 {
		cats = append(cats, pragma.Private)
	}
	if len(cats) == 0 && !cp.noSIMD && cp.simdFit {
		cats = append(cats, pragma.SIMD)
	}
	return cats
}

// Render assembles the directive: construct words first (a clause must
// never precede them), then collapse, schedule, reductions and the
// privatization clauses.
func (cp *ClausePlan) Render() string {
	var b strings.Builder
	b.WriteString(pragma.Construct(cp.Categories()))
	if cp.collapse >= 2 {
		fmt.Fprintf(&b, " collapse(%d)", cp.collapse)
	}
	if cp.schedule != "" {
		b.WriteString(" schedule(" + cp.schedule + ")")
	}
	for _, r := range cp.Reductions {
		b.WriteString(" reduction(" + r.Op + ":" + r.Var + ")")
	}
	if len(cp.FirstPrivate) > 0 {
		b.WriteString(" firstprivate(" + strings.Join(cp.FirstPrivate, ", ") + ")")
	}
	if len(cp.Private) > 0 {
		b.WriteString(" private(" + strings.Join(cp.Private, ", ") + ")")
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
