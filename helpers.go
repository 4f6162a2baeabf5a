package graph2par

import (
	"sort"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
)

// loopBody returns the body statement of a for/while loop.
func loopBody(loop cast.Stmt) cast.Stmt {
	switch x := loop.(type) {
	case *cast.For:
		return x.Body
	case *cast.While:
		return x.Body
	}
	return nil
}

// inductionVarName extracts the for-loop induction variable, if canonical.
func inductionVarName(f *cast.For) string {
	return depend.ExtractLoop(f).IndVar
}

// findReds lists recognized reduction updates in the body.
func findReds(body cast.Stmt, iv string) []depend.ReductionOp {
	return depend.FindReductions(body, map[string]bool{iv: true})
}

// hasPrivatizableTemp reports whether the body has a write-before-read
// scalar other than the induction variable.
func hasPrivatizableTemp(body cast.Stmt, iv string) bool {
	return len(privatizableVars(body, iv)) > 0
}

// privatizableVars lists write-before-read scalars (sorted), excluding
// block-local declarations which need no clause.
func privatizableVars(body cast.Stmt, iv string) []string {
	declared := cast.DeclaredNames(body)
	var out []string
	for name, cl := range depend.ClassifyScalars(body, iv, true) {
		if name == iv || declared[name] {
			continue
		}
		if cl == depend.ScalarPrivate {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// buildSuggestion renders a concrete OpenMP directive from the structural
// analysis: real reduction operators/variables and real private lists,
// falling back to the category templates when no names are known. The
// construct words (including `simd` and the `target teams distribute`
// prefix) come from pragma.Construct so they always precede the clauses.
func buildSuggestion(loop cast.Stmt, cats []pragma.Category) string {
	body := loopBody(loop)
	if body == nil {
		return pragma.Construct(cats)
	}
	iv := ""
	if f, ok := loop.(*cast.For); ok {
		iv = inductionVarName(f)
	}
	var b strings.Builder
	b.WriteString(pragma.Construct(cats))
	for _, r := range findReds(body, iv) {
		b.WriteString(" reduction(" + r.Op + ":" + r.Var + ")")
	}
	if priv := privatizableVars(body, iv); len(priv) > 0 {
		b.WriteString(" private(" + strings.Join(priv, ", ") + ")")
	}
	return b.String()
}
