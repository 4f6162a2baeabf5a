package graph2par

import (
	"fmt"
	"strings"
	"testing"

	"graph2par/internal/dataset"
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

// suggestionCorpus returns the generator's files at the default scale
// and two seeds (-short, which CI runs under the race detector: a quarter
// scale, one seed).
func suggestionCorpus() map[string]string {
	seeds, scale := []uint64{20, 1234}, 0.02
	if testing.Short() {
		seeds, scale = seeds[:1], 0.005
	}
	files := map[string]string{}
	for _, seed := range seeds {
		for _, s := range dataset.Generate(dataset.Config{Scale: scale, Seed: seed}).Samples {
			if s.FileSrc != "" {
				files[fmt.Sprintf("s%d_%d.c", seed, s.ID)] = s.FileSrc
			}
		}
	}
	return files
}

// TestSuggestionIsRewritePragma: the engine suggests the rewriter's
// derived directive, so with the rewrite stage on, every predicted-
// parallel for-loop suggests exactly its plan's pragma — except a
// rewritten-atomic plan, whose rescue derives a new one on a clone.
func TestSuggestionIsRewritePragma(t *testing.T) {
	files := suggestionCorpus()
	out, err := engineWith(t, EngineConfig{Rewrite: true}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for name, reports := range out {
		for _, r := range reports {
			if r.Rewrite == nil || r.Rewrite.Kind != "for" || r.Rewrite.Status == rewrite.StatusAtomic {
				continue
			}
			checked++
			if r.Suggestion != r.Rewrite.Pragma {
				t.Errorf("%s line %d: suggestion %q, plan pragma %q", name, r.Line, r.Suggestion, r.Rewrite.Pragma)
			}
		}
	}
	if checked == 0 {
		t.Skip("model predicted no for-loop parallel; nothing to compare")
	}
	t.Logf("%d predicted-parallel for-loops compared over %d files", checked, len(files))
}

// whileProgram sums an array in a while loop. The loop has no induction
// variable, so a parallel-for directive on it would make its counter a
// reduction variable.
const whileProgram = `
int main() {
    int a[64];
    int i = 0, s = 0;
    for (i = 0; i < 64; i++) a[i] = i;
    i = 0;
    while (i < 64) { s += a[i]; i = i + 1; }
    return s;
}
`

// TestWhileLoopGetsNoSuggestion: a while loop takes no worksharing
// directive, so even predicted parallel it gets no suggestion and no
// categories, while the verify stage still rules on the loop itself
// (Unsafe: only a canonical for loop can be workshared).
func TestWhileLoopGetsNoSuggestion(t *testing.T) {
	files := suggestionCorpus()
	files["while.c"] = whileProgram
	out, err := engineWith(t, EngineConfig{Verify: true}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	whiles, parallel := 0, 0
	for name, reports := range out {
		for _, r := range reports {
			if !strings.HasPrefix(r.Source, "while") {
				continue
			}
			whiles++
			if r.Suggestion != "" || r.Categories != nil {
				t.Errorf("%s line %d: while loop suggests %q (categories %v)", name, r.Line, r.Suggestion, r.Categories)
			}
			if !r.Parallel {
				continue
			}
			parallel++
			if r.Verdict == nil || r.Verdict.Level != verify.Unsafe {
				t.Errorf("%s line %d: predicted-parallel while loop has verdict %+v, want unsafe", name, r.Line, r.Verdict)
			}
		}
	}
	if whiles == 0 {
		t.Fatal("no while loop analyzed")
	}
	t.Logf("%d while loops, %d predicted parallel, over %d files", whiles, parallel, len(files))
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
