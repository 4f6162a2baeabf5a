// Package rewrite turns verified pragma decisions into transformed C
// source. It is the output modality past the advisory report: for every
// loop the engine (or the model-free CLI) wants parallel, it derives the
// full clause list the dependence analysis can justify — private,
// firstprivate, reduction(op:var), collapse(n) over perfect nests, a
// schedule choice — gates the derived directive through the static
// verifier, optionally rescues a shared array update with `#pragma omp
// atomic`, and validates the survivors dynamically by running the loop
// serially and in reversed iteration order under internal/cinterp with
// the DiscoPoP-style tracer as a race oracle.
//
// The transformation itself never reprints the file: Apply splices pragma
// lines at loop anchors, so every byte the rewrite does not own survives
// exactly — comments, spacing, macros the printer would normalize away.
// Each spliced file must re-parse to loops whose augmented graphs are
// byte-identical (auggraph.Canon) to the originals; a loop failing any
// gate falls back to suggestion-only with the reason on its plan.
package rewrite

import (
	"sort"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/verify"
)

// Status says what the rewriter did with one loop.
type Status string

const (
	// StatusRewritten: the derived pragma was spliced above the loop.
	StatusRewritten Status = "rewritten"
	// StatusAtomic: spliced, with `#pragma omp atomic` protecting the
	// shared updates that would otherwise have made the loop Unsafe.
	StatusAtomic Status = "rewritten-atomic"
	// StatusSuggestion: not rewritten; the plan carries the reason and the
	// derived pragma remains advisory.
	StatusSuggestion Status = "suggestion-only"
)

// Validation records how far the two output gates got for a rewritten
// loop: GraphIdentical is set by Apply once the spliced file re-parses to
// a canonically identical loop; Dynamic is the cinterp probe's outcome
// ("checked", "skipped: why", or "failed: why").
type Validation struct {
	GraphIdentical bool   `json:"graphIdentical,omitempty"`
	Dynamic        string `json:"dynamic,omitempty"`
}

// LoopPlan is the rewriter's decision for one loop.
type LoopPlan struct {
	Line   int    `json:"line"`
	Offset int    `json:"offset"`
	Kind   string `json:"kind"`
	Func   string `json:"func,omitempty"`
	Status Status `json:"status"`
	// Pragma is the derived directive: spliced when the status says
	// rewritten, advisory otherwise.
	Pragma string `json:"pragma,omitempty"`
	Reason string `json:"reason,omitempty"`
	// AtomicLines are the source lines receiving a `#pragma omp atomic`
	// (status rewritten-atomic only).
	AtomicLines []int          `json:"atomicLines,omitempty"`
	Verdict     verify.Verdict `json:"verdict"`
	Validation  Validation     `json:"validation"`

	// AtomicCols carries the candidates' start columns to the splicer's
	// byte-level first-on-line re-check. It is part of the wire format
	// (unlike meta) because a plan fetched from a peer replica's cache
	// must splice byte-identically to a locally computed one.
	AtomicCols []int `json:"atomicCols,omitempty"`
	// meta holds the clause derivation the dynamic validator used; the
	// splicer does not need it, but Clone must not share slices.
	meta ClausePlan
}

// Clone returns a deep copy safe to hand to another goroutine or mutate
// independently (the engine's cache detaches reports this way).
func (p *LoopPlan) Clone() *LoopPlan {
	if p == nil {
		return nil
	}
	n := *p
	if p.AtomicLines != nil {
		n.AtomicLines = append([]int(nil), p.AtomicLines...)
	}
	if p.AtomicCols != nil {
		n.AtomicCols = append([]int(nil), p.AtomicCols...)
	}
	if p.Verdict.Findings != nil {
		n.Verdict.Findings = append([]verify.Finding(nil), p.Verdict.Findings...)
	}
	return &n
}

// FileResult is one source file's rewrite: the per-loop plans and, when
// anything was accepted, the transformed source.
type FileResult struct {
	Path    string      `json:"path,omitempty"`
	Changed bool        `json:"changed"`
	Loops   []*LoopPlan `json:"loops"`
	// Output is the transformed source (equal to the input when no loop
	// was rewritten). It is process-internal; JSON consumers fetch the
	// written files instead.
	Output string `json:"-"`
}

// PlanLoop decides what to do with one loop: derive the clause list, gate
// it statically, attempt the atomic rescue on an Unsafe verdict, and
// validate dynamically. The result is a pure function of (loop, file) —
// cacheable alongside the loop's report. Graph identity is not checked
// here (it needs the spliced bytes); Apply sets it.
func PlanLoop(loop cast.Stmt, file *cast.File) *LoopPlan {
	pos := loop.Pos()
	plan := &LoopPlan{
		Line:   pos.Line,
		Offset: pos.Offset,
		Status: StatusSuggestion,
	}
	var fn *cast.FuncDecl
	if file != nil {
		fn = file.EnclosingFunc(loop)
		if fn != nil {
			plan.Func = fn.Name
		}
	}
	f, isFor := loop.(*cast.For)
	if !isFor {
		plan.Kind = "while"
		plan.Verdict = verify.Verify(verify.Request{Loop: loop, File: file})
		plan.Reason = "only for loops take a worksharing rewrite"
		if plan.Verdict.Reason != "" {
			plan.Reason = plan.Verdict.Reason
		}
		return plan
	}
	plan.Kind = "for"

	cp := DeriveClauses(f)
	plan.Pragma = cp.Render()
	plan.meta = cp
	v := verify.Verify(verify.Request{Loop: loop, File: file, Pragma: plan.Pragma})
	plan.Verdict = v

	switch v.Level {
	case verify.Safe:
		plan.Status = StatusRewritten
	case verify.Unsafe:
		if rescued := tryAtomicRescue(plan, f, file, fn); !rescued {
			plan.Reason = v.Reason
			return plan
		}
	default:
		plan.Reason = v.Reason
		return plan
	}

	out := validateDynamic(file, fn, f, plan.meta)
	switch out.status {
	case "failed":
		plan.Status = StatusSuggestion
		plan.AtomicLines = nil
		plan.AtomicCols = nil
		plan.Reason = "dynamic validation: " + out.detail
		plan.Validation.Dynamic = "failed: " + out.detail
	case "skipped":
		plan.Validation.Dynamic = "skipped: " + out.detail
	default:
		plan.Validation.Dynamic = "checked"
	}
	return plan
}

// tryAtomicRescue checks whether protecting the loop's qualifying shared
// array updates with `omp atomic` turns the Unsafe verdict Safe: it
// verifies a clone with those statements blanked out. On success the plan
// is upgraded in place.
func tryAtomicRescue(plan *LoopPlan, f *cast.For, file *cast.File, fn *cast.FuncDecl) bool {
	cands := atomicCandidates(f)
	if len(cands) == 0 {
		return false
	}
	clone := loopWithoutStmts(f, cands)
	cp := DeriveClauses(clone)
	cp.noSIMD = true
	prag := cp.Render()
	v := verify.Verify(verify.Request{Loop: clone, File: file, Fn: fn, Pragma: prag})
	if v.Level != verify.Safe {
		return false
	}
	for _, c := range cands {
		plan.AtomicLines = append(plan.AtomicLines, c.line)
		plan.AtomicCols = append(plan.AtomicCols, c.col)
		cp.atomicBases = append(cp.atomicBases, c.base)
	}
	sort.Strings(cp.atomicBases)
	plan.Status = StatusAtomic
	plan.Pragma = prag
	plan.Verdict = v
	plan.meta = cp
	return true
}

// RewriteSource is the model-free entry point (CLI, CI gate): every loop
// of the file is planned — the derived pragma decides, no model in the
// loop — and the accepted plans are spliced into the source.
func RewriteSource(src string) (*FileResult, error) {
	file, err := cparse.ParseFile(src)
	if err != nil {
		return nil, err
	}
	var plans []*LoopPlan
	for _, l := range file.Loops() {
		plans = append(plans, PlanLoop(l.Loop, file))
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Line < plans[j].Line })
	out, changed, err := Apply(src, plans)
	if err != nil {
		return nil, err
	}
	return &FileResult{Changed: changed, Loops: plans, Output: out}, nil
}
