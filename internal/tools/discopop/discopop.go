// Package discopop reimplements the decision behaviour of DiscoPoP, the
// hybrid dynamic parallelism detector of the paper's evaluation. The real
// tool instruments LLVM IR and analyzes the memory-access trace of an
// actual execution; here the trace comes from the cinterp interpreter. The
// profile mirrored from the paper:
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
//     is missed).
package discopop

import (
	"fmt"
	"sort"
	"sync"

	"graph2par/internal/cast"
	"graph2par/internal/cinterp"
	"graph2par/internal/depend"
	"graph2par/internal/slab"
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

// addrAgg aggregates one traced address's access pattern online, as the
// interpreter streams accesses. The dependence scan below only ever needs
// (a) whether the address was written at all, (b) whether it was touched in
// more than one iteration, and — for reduction candidates only — (c) the
// exact per-iteration write count over every touched iteration. Folding
// accesses into this struct as they arrive replaces the old
// record-per-access trace (a map of growing slices that dominated the
// allocation profile of every DiscoPoP run) without changing a single
// verdict: iteration indices are keyed exactly, so re-executions of the
// traced loop merge per-iteration counts just as the record scan did.
type addrAgg struct {
	firstIter int
	multiIter bool
	anyWrite  bool
	// iterWrites maps iteration → write count, with an entry for every
	// touched iteration (reads insert a zero). Only allocated for the
	// (few, watched) reduction-candidate scalars; every other address gets
	// by on the three flags above.
	iterWrites map[int]int
}

// aggState is the pooled per-run aggregation state: the address map plus a
// chunked slab the addrAgg entries come from, so an Analyze run allocates
// nothing per address in steady state and the hot trace callback pays one
// map read per access (pointer entries mutate in place — no write-back).
// Slab chunks are stable (never reallocated), so the map's pointers stay
// valid for the run.
type aggState struct {
	m    map[cinterp.Addr]*addrAgg
	aggs slab.Slab[addrAgg]
}

//graph2lint:noalloc
func (st *aggState) alloc() *addrAgg { return st.aggs.Get() }

func (st *aggState) reset() {
	clear(st.m)
	st.aggs.Reset()
}

// aggPool recycles aggregation state across Analyze calls (and across the
// engine's worker goroutines).
var aggPool = sync.Pool{New: func() any {
	return &aggState{m: map[cinterp.Addr]*addrAgg{}}
}}

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
	watch := []string{}
	if info.IndVar != "" {
		watch = append(watch, info.IndVar)
	}
	for name := range redOps {
		watch = append(watch, name)
	}
	sort.Strings(watch)

	in := cinterp.New(s.File)
	in.MaxSteps = d.MaxSteps
	in.TraceLoop = loop
	in.WatchNames = watch

	st := aggPool.Get().(*aggState)
	agg := st.m
	defer func() {
		st.reset()
		aggPool.Put(st)
	}()
	maxIter := -1
	// The watch addresses resolve when the traced loop is first entered —
	// before the first Trace callback — so the callback can resolve them
	// lazily and skip both the loop-control address (discarded by the scan
	// anyway) and per-iteration bookkeeping for non-candidates.
	resolved := false
	var traceIV cinterp.Addr
	traceHasIV := false
	isRedAddr := map[cinterp.Addr]bool{}
	in.Trace = func(a cinterp.Addr, w bool, iter int) {
		if !resolved {
			resolved = true
			if info.IndVar != "" {
				traceIV, traceHasIV = in.Watched[info.IndVar]
			}
			for name := range redOps {
				if ad, ok := in.Watched[name]; ok {
					isRedAddr[ad] = true
				}
			}
		}
		if iter > maxIter {
			maxIter = iter
		}
		if traceHasIV && a == traceIV {
			return // loop control, skipped by the dependence scan
		}
		g := agg[a]
		if g == nil {
			g = st.alloc()
			*g = addrAgg{firstIter: iter}
			if isRedAddr[a] {
				g.iterWrites = map[int]int{}
			}
			agg[a] = g
		}
		if iter != g.firstIter {
			g.multiIter = true
		}
		if w {
			g.anyWrite = true
		}
		if g.iterWrites != nil {
			if w {
				g.iterWrites[iter]++
			} else if _, ok := g.iterWrites[iter]; !ok {
				g.iterWrites[iter] = 0
			}
		}
	}
	if _, err := in.Run(); err != nil {
		v.Reason = fmt.Sprintf("DiscoPoP: program not profilable (%v)", err)
		return v
	}
	if maxIter < 1 {
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

	redAddr := map[cinterp.Addr]string{}
	for name := range redOps {
		if a, ok := in.Watched[name]; ok {
			redAddr[a] = name
		}
	}

	// Dependence scan over the aggregated trace.
	addrs := make([]cinterp.Addr, 0, len(agg))
	for a := range agg {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Obj != addrs[j].Obj {
			return addrs[i].Obj < addrs[j].Obj
		}
		return addrs[i].Elem < addrs[j].Elem
	})
	confirmedReds := map[string]string{}
	anyArrayWrite := false
	for _, a := range addrs {
		if a.IsArrayElem() && agg[a].anyWrite {
			anyArrayWrite = true
			break
		}
	}
	for _, a := range addrs {
		g := agg[a]
		if !g.anyWrite || !g.multiIter {
			continue // read-only or confined to one iteration
		}
		if name, isRed := redAddr[a]; isRed {
			oncePerIter := true
			for _, writes := range g.iterWrites {
				if writes != 1 {
					oncePerIter = false
					break
				}
			}
			if oncePerIter {
				confirmedReds[name] = redOps[name]
				continue
			}
			v.Reason = fmt.Sprintf("DiscoPoP: reduction candidate %q updated multiple times per iteration", name)
			return v
		}
		v.Reason = fmt.Sprintf("DiscoPoP: inter-iteration dependence on object %d", a.Obj)
		return v
	}

	// Template matching: DiscoPoP classifies a loop as do-all OR as a
	// reduction; a body that both reduces a scalar and writes arrays falls
	// outside both templates (the Listing 6 failure mode).
	if len(confirmedReds) > 0 && anyArrayWrite {
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
