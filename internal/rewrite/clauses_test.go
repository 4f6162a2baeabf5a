package rewrite

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/dataset"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
	"graph2par/internal/verify"
)

// renderPlans enumerates clause plans over everything Render
// distinguishes: reductions, private and firstprivate lists, simd
// eligibility and its suppression, and the loop shapes (no collapse, a
// collapse, either schedule, neither clause).
func renderPlans() []ClausePlan {
	shapes := []struct {
		collapse int
		schedule string
	}{{1, "static"}, {3, "dynamic"}, {0, ""}}
	var out []ClausePlan
	for mask := 0; mask < 1<<5; mask++ {
		for _, sh := range shapes {
			cp := ClausePlan{collapse: sh.collapse, schedule: sh.schedule,
				simdFit: mask&8 != 0, noSIMD: mask&16 != 0}
			if mask&1 != 0 {
				cp.Reductions = []depend.ReductionOp{{Var: "p", Op: "*"}, {Var: "s", Op: "+"}}
			}
			if mask&2 != 0 {
				cp.Private = []string{"t", "u"}
			}
			if mask&4 != 0 {
				cp.FirstPrivate = []string{"m"}
			}
			out = append(out, cp)
		}
	}
	return out
}

// TestRenderDirectiveOrder checks that every rendered directive is
// structurally valid OpenMP: the construct words (`parallel for`, then
// `simd` when the simd category applies) strictly precede the first
// clause, and no construct word reappears among the clauses.
func TestRenderDirectiveOrder(t *testing.T) {
	for _, cp := range renderPlans() {
		s := cp.Render()
		if !strings.HasPrefix(s, "#pragma omp ") {
			t.Fatalf("%+v: bad prefix %q", cp, s)
		}
		words := strings.Fields(strings.TrimPrefix(s, "#pragma omp "))
		// The first word carrying a parenthesized argument list is a clause.
		firstClause := len(words)
		for i, w := range words {
			if strings.Contains(w, "(") {
				firstClause = i
				break
			}
		}
		want := []string{"parallel", "for"}
		for _, c := range cp.Categories() {
			if c == pragma.SIMD {
				want = append(want, "simd")
			}
		}
		if got := words[:firstClause]; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: construct = %v, want %v (full: %q)", cp, got, want, s)
		}
		for _, w := range words[firstClause:] {
			switch w {
			case "target", "teams", "distribute", "simd", "parallel", "for":
				t.Errorf("%+v: construct word %q after clauses: %q", cp, w, s)
			}
		}
	}
}

// TestRenderParseRoundTrip feeds every rendered directive back through
// pragma.Parse: it must be an OpenMP worksharing directive carrying the
// plan's categories, reductions and privatized names, and a collapse or
// schedule clause exactly when the plan has one.
func TestRenderParseRoundTrip(t *testing.T) {
	for _, cp := range renderPlans() {
		s := cp.Render()
		in := pragma.Parse(s)
		if !in.IsOMP || !in.ParallelFor {
			t.Fatalf("%q did not parse as an OMP worksharing directive", s)
		}
		wantCats := map[pragma.Category]bool{}
		for _, c := range cp.Categories() {
			wantCats[c] = true
		}
		gotCats := map[pragma.Category]bool{}
		for _, c := range in.Categories {
			gotCats[c] = true
		}
		if !reflect.DeepEqual(gotCats, wantCats) {
			t.Errorf("%q: categories %v, want %v", s, in.Categories, cp.Categories())
		}
		wantReds := map[string][]string{}
		for _, r := range cp.Reductions {
			wantReds[r.Op] = append(wantReds[r.Op], r.Var)
		}
		if !reflect.DeepEqual(in.ReductionOps, wantReds) {
			t.Errorf("%q: reductions %v, want %v", s, in.ReductionOps, wantReds)
		}
		wantPriv := append(append([]string(nil), cp.Private...), cp.FirstPrivate...)
		sort.Strings(wantPriv)
		if len(wantPriv)+len(in.PrivateVars) > 0 && !reflect.DeepEqual(in.PrivateVars, wantPriv) {
			t.Errorf("%q: privatized %v, want %v", s, in.PrivateVars, wantPriv)
		}
		for clause, want := range map[string]bool{"collapse": cp.collapse >= 2, "schedule": cp.schedule != ""} {
			got := false
			for _, c := range in.Clauses {
				got = got || c == clause
			}
			if got != want {
				t.Errorf("%q: has %s = %v, want %v", s, clause, got, want)
			}
		}
	}
}

// TestDerivedPragmasPassClauseCheck: the clause check enforces the rule
// the rewriter renders, so no for-loop's derived directive may draw a
// clauses finding. The loops are every for-loop of the generator's files
// (and its bare snippets) at the default scale and two seeds.
func TestDerivedPragmasPassClauseCheck(t *testing.T) {
	loops, collapsed := 0, 0
	for _, seed := range []uint64{20, 1234} {
		c := dataset.Generate(dataset.Config{Scale: 0.02, Seed: seed})
		for _, s := range c.Samples {
			fors := []cast.Stmt{s.Loop}
			if s.File != nil {
				fors = fors[:0]
				for _, l := range s.File.Loops() {
					fors = append(fors, l.Loop)
				}
			}
			for _, l := range fors {
				f, ok := l.(*cast.For)
				if !ok {
					continue
				}
				loops++
				cp := DeriveClauses(f)
				prag := cp.Render()
				if cp.collapse >= 2 {
					collapsed++
				}
				v := verify.Verify(verify.Request{Loop: f, File: s.File, Pragma: prag})
				for _, fd := range v.Findings {
					if fd.Check == "clauses" {
						t.Errorf("seed %d sample %d line %d: derived %q draws %q",
							seed, s.ID, f.Pos().Line, prag, fd.Reason)
					}
				}
			}
		}
	}
	if loops == 0 {
		t.Fatal("no for-loops generated")
	}
	t.Logf("%d for-loops, %d derived pragmas with collapse(n)", loops, collapsed)
}
