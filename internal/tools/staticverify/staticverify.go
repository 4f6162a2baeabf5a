// Package staticverify adapts internal/verify to the tools.Tool
// interface, so the static pragma-safety verifier can sit in the same
// comparison harness as autoPar, PLUTO and DiscoPoP. Unlike the classic
// comparators it runs in derive mode — "could ANY worksharing pragma
// legally land on this loop" — and maps the verdict lattice onto the
// binary tool contract conservatively: only Safe counts as parallel.
package staticverify

import (
	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/tools"
	"graph2par/internal/verify"
)

// Tool is the adapter; it is stateless and safe for concurrent use.
type Tool struct{}

// New returns the adapter.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (*Tool) Name() string { return "StaticVerify" }

// Analyze implements tools.Tool. Every loop is processable — the verifier
// is a pure static analysis with no compile/run prerequisites — and the
// verdict level rides along in the canonical verify.Level encoding.
func (*Tool) Analyze(s tools.Sample) tools.Verdict {
	v := verify.Verify(verify.Request{Loop: s.Loop, File: s.File})
	out := tools.Verdict{
		Processable: true,
		Parallel:    v.Level == verify.Safe,
		Level:       v.Level.String(),
		Reason:      "StaticVerify: " + v.Level.String(),
	}
	if v.Reason != "" {
		out.Reason += ": " + v.Reason
	}
	if f, ok := s.Loop.(*cast.For); ok {
		fillClauses(&out, f)
	}
	return out
}

// fillClauses derives the reduction and private lists the verifier's
// clause check would demand, mirroring the engine's suggestion builder.
func fillClauses(out *tools.Verdict, f *cast.For) {
	info := depend.ExtractLoop(f)
	if !info.Canonical || f.Body == nil {
		return
	}
	scalars := depend.ClassifyScalars(f.Body, info.IndVar, true)
	for _, r := range depend.FindReductions(f.Body, map[string]bool{info.IndVar: true}) {
		if scalars[r.Var] == depend.ScalarReduction {
			if out.Reductions == nil {
				out.Reductions = map[string]string{}
			}
			out.Reductions[r.Var] = r.Op
		}
	}
	declared := cast.DeclaredNames(f.Body)
	for name, cl := range scalars {
		if cl == depend.ScalarPrivate && name != info.IndVar && !declared[name] {
			out.Private = append(out.Private, name)
		}
	}
	sortStrings(out.Private)
}

// sortStrings is a tiny insertion sort: Private lists hold a handful of
// names, and keeping them ordered makes verdicts deterministic.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
