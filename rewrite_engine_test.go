package graph2par

import (
	"strings"
	"testing"

	"graph2par/internal/rewrite"
	"graph2par/internal/verify"
)

// rewriteProgram mixes a loop the rewriter accepts with one the verifier
// must reject, so the engine's rewrite stage exercises both outcomes.
const rewriteProgram = `
void kernels(int n, double a[], double b[]) {
    for (int i = 0; i < n; i++) b[i] = a[i] * 2.0;
    for (int i = 1; i < n; i++) a[i] = a[i - 1] + 1.0;
}
`

func TestEngineRewriteStage(t *testing.T) {
	e := engineWith(t, EngineConfig{Rewrite: true})
	reports := analyze(t, e, rewriteProgram)
	plans := 0
	for _, r := range reports {
		if r.Parallel != (r.Rewrite != nil) {
			t.Errorf("line %d: Parallel=%v but Rewrite=%v", r.Line, r.Parallel, r.Rewrite)
		}
		if r.Rewrite == nil {
			continue
		}
		plans++
		switch r.Rewrite.Status {
		case rewrite.StatusRewritten, rewrite.StatusAtomic, rewrite.StatusSuggestion:
		default:
			t.Errorf("line %d: plan status %q outside the set", r.Line, r.Rewrite.Status)
		}
		if r.Rewrite.Status != rewrite.StatusSuggestion && r.Rewrite.Pragma == "" {
			t.Errorf("line %d: accepted plan without a pragma", r.Line)
		}
		if got := r.Format(); !strings.Contains(got, "rewrite:   "+string(r.Rewrite.Status)) {
			t.Errorf("line %d: Format misses the rewrite line:\n%s", r.Line, got)
		}
	}
	if plans == 0 {
		t.Skip("model predicted no loop parallel; nothing to plan")
	}
	st, ok := e.RewriteStats()
	if !ok {
		t.Fatal("RewriteStats not ok with the stage enabled")
	}
	if st.Rewritten+st.Atomic+st.Suggestion == 0 {
		t.Error("plan counters never moved")
	}
}

func TestEngineRewriteSource(t *testing.T) {
	e := engineWith(t, EngineConfig{Rewrite: true, CacheSize: 64})
	res, err := e.RewriteSource(rewriteProgram)
	if err != nil {
		t.Fatal(err)
	}
	planned := false
	for _, r := range res.Reports {
		if r.Rewrite != nil {
			planned = true
		}
	}
	if !planned {
		t.Skip("model predicted no loop parallel; nothing to splice")
	}
	if res.Changed != strings.Contains(res.Output, "#pragma omp") {
		t.Errorf("Changed=%v but output:\n%s", res.Changed, res.Output)
	}
	// The recurrence loop must never ship, whatever the model predicted.
	if strings.Contains(res.Output, "#pragma omp parallel for\n    for (int i = 1;") {
		t.Errorf("recurrence loop rewritten:\n%s", res.Output)
	}
	// A cached re-run replays the stored plans; the splice must agree.
	again, err := e.RewriteSource(rewriteProgram)
	if err != nil {
		t.Fatal(err)
	}
	if again.Output != res.Output || again.Changed != res.Changed {
		t.Errorf("cached rewrite differs:\n%s\n--- vs ---\n%s", again.Output, res.Output)
	}
}

func TestEngineRewriteDisabled(t *testing.T) {
	e := engine(t)
	reports := analyze(t, e, rewriteProgram)
	for _, r := range reports {
		if r.Rewrite != nil {
			t.Errorf("line %d: plan attached with the stage off", r.Line)
		}
	}
	if _, ok := e.RewriteStats(); ok {
		t.Error("RewriteStats ok with the stage off")
	}
	if _, err := e.RewriteSource(rewriteProgram); err == nil {
		t.Error("RewriteSource succeeded with the stage off")
	}
}

func TestCloneReportDetachesRewrite(t *testing.T) {
	orig := LoopReport{Rewrite: &rewrite.LoopPlan{
		Status:      rewrite.StatusAtomic,
		Pragma:      "#pragma omp parallel for",
		AtomicLines: []int{3},
		Verdict:     verify.Verdict{Findings: []verify.Finding{{Check: "structure"}}},
	}}
	cl := cloneReport(orig)
	cl.Rewrite.Status = rewrite.StatusSuggestion
	cl.Rewrite.AtomicLines[0] = 99
	cl.Rewrite.Verdict.Findings[0].Check = "mutated"
	if orig.Rewrite.Status != rewrite.StatusAtomic ||
		orig.Rewrite.AtomicLines[0] != 3 ||
		orig.Rewrite.Verdict.Findings[0].Check != "structure" {
		t.Errorf("clone shares plan storage with the original: %+v", orig.Rewrite)
	}
}
