// Package pluto reimplements the decision behaviour of PLUTO, the
// polyhedral source-to-source parallelizer used as a static comparator.
// PLUTO is precise exactly on static control parts (SCoPs): perfect or
// imperfect affine loop nests with affine bounds, affine subscripts and no
// function calls. Its profile, mirrored here:
//
//   - processes any for-loop it can parse (the widest coverage of the
//     three tools, like the 4032-loop Subset_PLUTO of Table 4);
//   - detects parallelism only inside a valid SCoP: a single function
//     call, while-loop, non-affine bound or subscript disqualifies the
//     loop (Listings 1–3);
//   - the polyhedral model has no scalar reduction handling: any scalar
//     written by the loop that is live across iterations defeats
//     parallelism (Listings 4–6), except block-local scalars and inner
//     loop induction variables;
//   - full affine distance-vector dependence testing on arrays.
package pluto

import (
	"fmt"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
	"graph2par/internal/tools"
)

// Pluto is the polyhedral static analyzer.
type Pluto struct{}

// New returns the tool.
func New() *Pluto { return &Pluto{} }

// Name implements tools.Tool.
func (p *Pluto) Name() string { return "PLUTO" }

// Analyze implements tools.Tool.
func (p *Pluto) Analyze(s tools.Sample) tools.Verdict {
	v := tools.Verdict{Reductions: map[string]string{}}
	loop, ok := s.Loop.(*cast.For)
	if !ok {
		v.Reason = "PLUTO: only for-loops form SCoPs"
		return v
	}
	info := depend.ExtractLoop(loop)
	if !info.Canonical {
		v.Reason = "PLUTO: non-canonical loop"
		return v
	}
	v.Processable = true

	if len(depend.LoopExits(loop.Body)) > 0 {
		v.Reason = "PLUTO: early exit breaks static control flow"
		return v
	}

	// SCoP validation.
	if has, names := depend.HasCalls(loop.Body); has {
		v.Reason = fmt.Sprintf("PLUTO: function call %q breaks the SCoP", names[0])
		return v
	}
	if reason, ok := p.validateSCoP(loop); !ok {
		v.Reason = "PLUTO: " + reason
		return v
	}

	// Scalar writes: the polyhedral model treats a scalar as a 0-dim array;
	// any cross-iteration liveness is a dependence. Inner induction
	// variables and block-local declarations are the only exemptions.
	nestIVs := map[string]bool{info.IndVar: true}
	cast.Walk(loop.Body, func(n cast.Node) bool {
		if f, ok := n.(*cast.For); ok {
			if fi := depend.ExtractLoop(f); fi.Canonical {
				nestIVs[fi.IndVar] = true
			}
		}
		return true
	})
	declared := cast.DeclaredNames(loop.Body)
	for _, acc := range depend.CollectAccesses(loop.Body) {
		if !acc.Write || len(acc.Subscripts) > 0 || acc.ViaPointer {
			continue
		}
		if nestIVs[acc.Base] || declared[acc.Base] {
			continue
		}
		v.Reason = fmt.Sprintf("PLUTO: scalar %q written by the loop (no reduction support)", acc.Base)
		return v
	}

	// Affine array dependence.
	if deps := depend.AnalyzeArrays(loop.Body, info.IndVar); len(deps) > 0 {
		v.Reason = "PLUTO: " + deps[0].Why
		return v
	}

	v.Parallel = true
	v.Reason = "PLUTO: affine SCoP with no carried dependences"
	return v
}

// validateSCoP checks the static-control-part conditions beyond calls:
// only assignments, ifs with affine conditions, and canonical nested
// for-loops with affine bounds; no while/do/goto/switch; all subscripts
// affine; no pointer-mediated accesses.
func (p *Pluto) validateSCoP(loop *cast.For) (string, bool) {
	reason := ""
	valid := true
	var checkBounds func(f *cast.For)
	checkBounds = func(f *cast.For) {
		info := depend.ExtractLoop(f)
		if !info.Canonical {
			reason, valid = "non-canonical nested loop", false
			return
		}
		if info.Lower != nil {
			if _, ok := depend.AffineOf(info.Lower); !ok {
				reason, valid = "non-affine lower bound", false
			}
		}
		if info.Upper != nil {
			if _, ok := depend.AffineOf(info.Upper); !ok {
				reason, valid = "non-affine upper bound", false
			}
		}
	}
	checkBounds(loop)
	if !valid {
		return reason, false
	}
	cast.Walk(loop.Body, func(n cast.Node) bool {
		if !valid {
			return false
		}
		switch x := n.(type) {
		case *cast.While, *cast.DoWhile:
			reason, valid = "while/do-while inside SCoP", false
		case *cast.Goto, *cast.Label, *cast.Switch:
			reason, valid = "irregular control flow inside SCoP", false
		case *cast.For:
			checkBounds(x)
		case *cast.Index:
			_, subs, viaPtr := indexParts(x)
			if viaPtr {
				reason, valid = "pointer-based access", false
				return false
			}
			for _, sub := range subs {
				if _, ok := depend.AffineOf(sub); !ok {
					reason, valid = "non-affine subscript", false
				}
			}
		case *cast.Member:
			reason, valid = "struct access inside SCoP", false
		case *cast.Unary:
			if x.Op == "*" || x.Op == "&" {
				reason, valid = "pointer arithmetic inside SCoP", false
			}
		}
		return valid
	})
	return reason, valid
}

func indexParts(ix *cast.Index) (base cast.Expr, subs []cast.Expr, viaPtr bool) {
	cur := cast.Expr(ix)
	for {
		n, ok := cur.(*cast.Index)
		if !ok {
			break
		}
		subs = append(subs, n.Idx)
		cur = n.Arr
	}
	if _, ok := cur.(*cast.Ident); !ok {
		viaPtr = true
	}
	return cur, subs, viaPtr
}
