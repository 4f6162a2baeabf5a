// Package staticverify adapts internal/verify to the tools.Tool
// interface, so the static pragma-safety verifier can sit in the same
// comparison harness as autoPar, PLUTO and DiscoPoP. Unlike the classic
// comparators it runs in derive mode — "could ANY worksharing pragma
// legally land on this loop" — and maps the verdict lattice onto the
// binary tool contract conservatively: only Safe counts as parallel.
package staticverify

import (
	"sort"

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
	cs := verify.Clauses(s.Loop)
	for _, r := range cs.Reductions {
		if out.Reductions == nil {
			out.Reductions = map[string]string{}
		}
		out.Reductions[r.Var] = r.Op
	}
	// Private lists every privatized scalar, firstprivate ones included.
	out.Private = append(append(out.Private, cs.Private...), cs.FirstPrivate...)
	sort.Strings(out.Private)
	return out
}
