// Package autopar reimplements the decision behaviour of ROSE autoPar, the
// conservative static source-to-source parallelizer of the paper's
// evaluation. Its profile, mirrored here:
//
//   - whole-file static analysis: it only processes loops whose enclosing
//     file compiled (the paper reports 10.3% coverage on OMP_Serial);
//   - canonical countable for-loops only;
//   - bails out on ANY function call in the loop body — even pure math
//     calls — which is exactly why it misses the paper's Listings 1–3;
//   - recognizes scalar reductions and privatizable scalars, but
//     privatization is established only by an unconditional top-level
//     write-before-read (writes buried in nested loops or branches do not
//     count), which is why it misses Listing 8;
//   - affine array dependence tests; any possible carried dependence or
//     non-affine subscript rejects the loop;
//   - injects `#pragma omp parallel for [private(...)] [reduction(...)]`
//     for accepted loops.
package autopar

import (
	"fmt"
	"sort"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/tools"
)

// AutoPar is the conservative static analyzer.
type AutoPar struct{}

// New returns the tool.
func New() *AutoPar { return &AutoPar{} }

// Name implements tools.Tool.
func (a *AutoPar) Name() string { return "autoPar" }

// Analyze implements tools.Tool.
func (a *AutoPar) Analyze(s tools.Sample) tools.Verdict {
	v := tools.Verdict{Reductions: map[string]string{}}

	// ROSE runs on whole compilable files.
	if !s.Compilable || s.File == nil {
		v.Reason = "autoPar: requires a compilable translation unit"
		return v
	}
	loop, ok := s.Loop.(*cast.For)
	if !ok {
		v.Reason = "autoPar: only for-loops are considered"
		return v
	}
	info := depend.ExtractLoop(loop)
	if !info.Canonical {
		v.Reason = "autoPar: loop is not in canonical form"
		return v
	}
	v.Processable = true

	if len(depend.LoopExits(loop.Body)) > 0 {
		v.Parallel = false
		v.Reason = "autoPar: early exit (break/goto/return) breaks the canonical loop form"
		return v
	}

	// Conservative call handling: any call is an unknown side effect.
	if has, names := depend.HasCalls(loop.Body); has {
		v.Parallel = false
		v.Reason = fmt.Sprintf("autoPar: function call(s) %s may have side effects", strings.Join(names, ", "))
		return v
	}

	// Scalar classification: conservative (no nested/conditional writes
	// establish privatization).
	classes := depend.ClassifyScalars(loop.Body, info.IndVar, false)
	nestIVs := nestedIndVars(loop)
	var private []string
	for name, cl := range classes {
		if name == info.IndVar {
			continue
		}
		switch cl {
		case depend.ScalarCarried:
			if nestIVs[name] {
				// inner-loop induction variables are privatized
				private = append(private, name)
				continue
			}
			v.Parallel = false
			v.Reason = fmt.Sprintf("autoPar: loop-carried dependence on scalar %q", name)
			return v
		case depend.ScalarPrivate:
			private = append(private, name)
		}
	}
	for _, r := range depend.FindReductions(loop.Body, map[string]bool{info.IndVar: true}) {
		v.Reductions[r.Var] = r.Op
	}

	// Array dependence tests.
	if deps := depend.AnalyzeArrays(loop.Body, info.IndVar); len(deps) > 0 {
		v.Parallel = false
		v.Reason = "autoPar: " + deps[0].Why
		return v
	}

	// Pattern-matcher limits of the reduction recognizer, mirrored from the
	// paper's case studies: a reduction combined with array writes in the
	// same body (Listing 6), or fed by multi-dimensional array reads
	// (Listing 7), falls outside the clause generator.
	if len(v.Reductions) > 0 {
		anyArrayWrite, anyMultiDimRead := false, false
		for _, acc := range depend.CollectAccesses(loop.Body) {
			if len(acc.Subscripts) > 0 && acc.Write {
				anyArrayWrite = true
			}
			if len(acc.Subscripts) >= 2 && !acc.Write {
				anyMultiDimRead = true
			}
		}
		if anyArrayWrite {
			v.Parallel = false
			v.Reason = "autoPar: reduction mixed with array writes is outside the clause generator"
			return v
		}
		if anyMultiDimRead {
			v.Parallel = false
			v.Reason = "autoPar: reduction over multi-dimensional array reads is outside the clause generator"
			return v
		}
	}

	sort.Strings(private)
	v.Private = private
	v.Parallel = true
	v.Reason = "autoPar: " + a.Pragma(v)
	return v
}

// Pragma renders the OpenMP directive autoPar would inject for an accepted
// loop.
func (a *AutoPar) Pragma(v tools.Verdict) string {
	var b strings.Builder
	b.WriteString("#pragma omp parallel for")
	if len(v.Private) > 0 {
		b.WriteString(" private(" + strings.Join(v.Private, ",") + ")")
	}
	if len(v.Reductions) > 0 {
		vars := make([]string, 0, len(v.Reductions))
		for name := range v.Reductions {
			vars = append(vars, name)
		}
		sort.Strings(vars)
		for _, name := range vars {
			b.WriteString(" reduction(" + v.Reductions[name] + ":" + name + ")")
		}
	}
	return b.String()
}

// nestedIndVars returns the induction variables of canonical nested loops.
func nestedIndVars(outer *cast.For) map[string]bool {
	out := map[string]bool{}
	cast.Walk(outer.Body, func(n cast.Node) bool {
		if f, ok := n.(*cast.For); ok {
			if info := depend.ExtractLoop(f); info.Canonical {
				out[info.IndVar] = true
			}
		}
		return true
	})
	return out
}
