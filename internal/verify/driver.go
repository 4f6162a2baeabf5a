package verify

import (
	"graph2par/internal/cast"
	"graph2par/internal/clex"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
)

// Check is one analyzer of the suite: a name (listed by the CLIs' -list
// and carried in the Finding.Check field), a one-line doc, and the pass
// function. Checks only ever APPEND findings; they never mutate the
// shared facts.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Checks returns the full suite in its fixed registration order. The
// order is part of the output contract: findings are reported in suite
// order, so golden verdicts stay stable.
func Checks() []*Check {
	return []*Check{
		{
			Name: "structure",
			Doc:  "canonical loop form and structural legality (break/goto/return escapes, induction-variable writes, continue under ordered)",
			Run:  checkStructure,
		},
		{
			Name: "dependence",
			Doc:  "loop-carried dependence re-verification over scalars and affine array subscripts",
			Run:  checkDependence,
		},
		{
			Name: "clauses",
			Doc:  "private/reduction clause lists must cover exactly what the dependence analysis derives",
			Run:  checkClauses,
		},
		{
			Name: "purity",
			Doc:  "calls in the body must be pure: vetted libc table, recursive analysis of defined functions, unknown calls are Unknown",
			Run:  checkPurity,
		},
		{
			Name: "alias",
			Doc:  "two arrays written in the body must not be potentially-aliasing pointer parameters",
			Run:  checkAlias,
		},
	}
}

// Pass carries the facts every check shares, computed once per request:
// the normalized loop form, the scalar classification, the recognized
// reductions, the parsed pragma and the enclosing function. Checks read
// these and append findings.
type Pass struct {
	// Loop and Body are the loop under verification and its body.
	Loop cast.Stmt
	Body cast.Stmt
	// File is the enclosing translation unit (nil for bare snippets).
	File *cast.File
	// Fn is the function whose body contains Loop (nil when File is nil
	// or the loop was not found — e.g. a snippet pasted out of context).
	Fn *cast.FuncDecl
	// Funcs maps defined (body-carrying) function names of File (nil
	// when File is nil).
	Funcs map[string]*cast.FuncDecl

	// IsFor reports a for-loop; Info is its normalized form (zero for
	// while/do-while loops).
	IsFor bool
	Info  depend.LoopInfo

	// Pragma is the parsed directive under verification; nil in derive
	// mode (Request.Pragma == "").
	Pragma *pragma.Info

	// Scalars classifies every scalar in the body (nestedWrites=true, the
	// setting Clauses derives every directive's lists with, so the clause
	// check compares like with like). Reds lists recognized reduction
	// updates. Declared marks variables declared inside the body.
	// Accesses is the body's full access list, shared by the dependence,
	// clause and alias checks.
	Scalars  map[string]depend.ScalarClass
	Reds     []depend.ReductionOp
	Declared map[string]bool
	Accesses []depend.Access

	// purity memoizes the recursive analysis of defined functions.
	purity map[string]purityResult

	findings []Finding
}

// newPass computes the shared facts for one request.
func newPass(req Request) *Pass {
	p := &Pass{
		Loop:   req.Loop,
		File:   req.File,
		Fn:     req.Fn,
		purity: map[string]purityResult{},
	}
	p.Body, p.Info, p.IsFor = loopParts(req.Loop)
	if req.File != nil {
		p.Funcs = req.File.DefinedFuncs()
		if p.Fn == nil {
			p.Fn = req.File.EnclosingFunc(req.Loop)
		}
	}
	if req.Pragma != "" {
		p.Pragma = pragma.Parse(req.Pragma)
	}
	if p.Body != nil {
		iv := p.Info.IndVar
		p.Scalars = depend.ClassifyScalars(p.Body, iv, true)
		p.Reds = depend.FindReductions(p.Body, map[string]bool{iv: true})
		p.Declared = cast.DeclaredNames(p.Body)
		p.Accesses = depend.CollectAccesses(p.Body)
	}
	return p
}

// loopParts returns a loop's body and, for a for-loop, its normalized
// form (zero for while and do-while loops).
func loopParts(loop cast.Stmt) (body cast.Stmt, info depend.LoopInfo, isFor bool) {
	switch l := loop.(type) {
	case *cast.For:
		return l.Body, depend.ExtractLoop(l), true
	case *cast.While:
		return l.Body, info, false
	case *cast.DoWhile:
		return l.Body, info, false
	}
	return nil, info, false
}

// report appends one finding at the given position.
func (p *Pass) report(check string, lv Level, reason string, pos clex.Pos) {
	p.findings = append(p.findings, Finding{
		Check: check, Level: lv, Reason: reason, Line: pos.Line, Col: pos.Col,
	})
}

// verdict folds the findings into the combined result: worst level wins,
// and the first finding AT that level supplies the headline reason and
// position (checks run in registration order, so this is deterministic).
func (p *Pass) verdict() Verdict {
	v := Verdict{Level: Safe, Findings: p.findings}
	for _, f := range p.findings {
		v.Level = worse(v.Level, f.Level)
	}
	for _, f := range p.findings {
		if f.Level == v.Level {
			v.Reason, v.Line, v.Col = f.Reason, f.Line, f.Col
			break
		}
	}
	return v
}

// hasWord reports whether the word list contains w.
//
//graph2lint:noalloc
func hasWord(words []string, w string) bool {
	for _, x := range words {
		if x == w {
			return true
		}
	}
	return false
}
