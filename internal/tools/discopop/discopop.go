// Package discopop reimplements the decision behaviour of DiscoPoP, the
// hybrid dynamic parallelism detector of the paper's evaluation. The real
// tool instruments LLVM IR and analyzes the memory-access trace of an
// actual execution; here the program runs in the cinterp interpreter, which
// folds the target loop's accesses by address into a cinterp.Profile, the
// same profile the rewrite oracle reads. The behaviour mirrored from the
// paper:
//
//   - needs to EXECUTE the program: only loops inside complete runnable
//     translation units are processable, under a step budget that stands in
//     for profiling cost (the paper reports 3.7% coverage on OMP_Serial);
//   - calls to external (non-instrumented) functions — including libm —
//     are opaque and force a conservative "not parallel" (Listing 1);
//     calls to functions defined in the same file are instrumented through
//     and fine (Listing 3);
//   - do-all detection: an address accessed in two different iterations
//     with at least one write is an inter-iteration dependence;
//   - reduction detection is pattern-based: only single-statement updates
//     (x += e, x = x op e, x++) count (the two-statement update of
//     Listing 4 is missed), and the update must execute exactly once per
//     iteration of the analyzed loop (so the outer loop of the nest in
//     Listing 5, whose counter is bumped many times per outer iteration,
//     is missed). The writes are counted per iteration index over every
//     entry of the loop (cinterp.Cell.OncePerIter), so the inner loop of a
//     nest that re-enters it is missed as well.
package discopop

import (
	"fmt"
	"sort"

	"graph2par/internal/cast"
	"graph2par/internal/cinterp"
	"graph2par/internal/depend"
	"graph2par/internal/tools"
)

// DiscoPoP is the dynamic analyzer.
type DiscoPoP struct {
	// MaxSteps is the interpreter step budget per sample (profiling cost
	// stand-in). Default 2,000,000. The traced loop always runs in full:
	// profiling cost is part of the tool's real profile, so long-running
	// programs genuinely blow the step budget.
	MaxSteps int
}

// New returns the tool with default budgets.
func New() *DiscoPoP { return &DiscoPoP{MaxSteps: 2_000_000} }

// Name implements tools.Tool.
func (d *DiscoPoP) Name() string { return "DiscoPoP" }

// Analyze implements tools.Tool.
func (d *DiscoPoP) Analyze(s tools.Sample) tools.Verdict {
	v := tools.Verdict{Reductions: map[string]string{}}
	if !s.Runnable || s.File == nil {
		v.Reason = "DiscoPoP: requires a runnable program for profiling"
		return v
	}
	loop, ok := s.Loop.(*cast.For)
	if !ok {
		v.Reason = "DiscoPoP: loop-level analysis targets for-loops"
		return v
	}

	// Identify defined functions to separate instrumented from opaque calls.
	defined := s.File.DefinedFuncs()

	info := depend.ExtractLoop(loop)
	// Syntactic single-statement reduction candidates (DiscoPoP's pattern
	// matcher); multi-statement updates are deliberately not candidates.
	redOps := map[string]string{}
	for _, r := range depend.FindReductions(loop.Body, map[string]bool{info.IndVar: true}) {
		if !r.MultiStatement {
			redOps[r.Var] = r.Op
		}
	}
	// The loop control is exempt: the profile never records it.
	var watch []cinterp.Watch
	if info.IndVar != "" {
		watch = append(watch, cinterp.Watch{Name: info.IndVar, Role: cinterp.Exempt})
	}
	reds := make([]string, 0, len(redOps))
	for name := range redOps {
		reds = append(reds, name)
	}
	sort.Strings(reds)
	for _, name := range reds {
		watch = append(watch, cinterp.Watch{Name: name, Role: cinterp.Reduction})
	}

	in := cinterp.New(s.File)
	in.MaxSteps = d.MaxSteps
	in.TraceLoop = loop
	in.Watch = watch
	if _, err := in.Run(); err != nil {
		v.Reason = fmt.Sprintf("DiscoPoP: program not profilable (%v)", err)
		return v
	}
	prof := in.Profile
	if prof.MaxIter < 1 {
		v.Reason = "DiscoPoP: instrumented loop executed fewer than 2 iterations"
		return v
	}
	v.Processable = true

	if len(depend.LoopExits(loop.Body)) > 0 {
		v.Reason = "DiscoPoP: early exit violates the canonical worksharing form"
		return v
	}

	// Opaque external calls make the trace incomplete: conservative.
	if has, names := depend.HasCalls(loop.Body); has {
		for _, n := range names {
			if defined[n] == nil {
				v.Reason = fmt.Sprintf("DiscoPoP: call to non-instrumented function %q", n)
				return v
			}
		}
	}

	// Dependence scan over the profile.
	confirmedReds := map[string]string{}
	for _, c := range prof.Cells {
		if !c.Shared {
			continue // read-only or confined to one iteration
		}
		if c.Reduction {
			if c.OncePerIter {
				confirmedReds[c.Name] = redOps[c.Name]
				continue
			}
			v.Reason = fmt.Sprintf("DiscoPoP: reduction candidate %q updated multiple times per iteration", c.Name)
			return v
		}
		v.Reason = fmt.Sprintf("DiscoPoP: inter-iteration dependence on object %d", c.Addr.Obj)
		return v
	}

	// Template matching: DiscoPoP classifies a loop as do-all OR as a
	// reduction; a body that both reduces a scalar and writes arrays falls
	// outside both templates (the Listing 6 failure mode).
	if len(confirmedReds) > 0 && prof.ArrayWritten {
		v.Reason = "DiscoPoP: mixed reduction and array-write pattern matches neither template"
		return v
	}

	v.Parallel = true
	v.Reductions = confirmedReds
	if len(confirmedReds) > 0 {
		v.Reason = "DiscoPoP: reduction pattern"
	} else {
		v.Reason = "DiscoPoP: do-all pattern"
	}
	return v
}
