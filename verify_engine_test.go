package graph2par

import (
	"encoding/json"
	"testing"

	"graph2par/internal/verify"
)

// verifyProgram has loops the quick test model will split between
// parallel and not; every suggested pragma must come back with a verdict.
const verifyProgram = `
void kernels(int n, double a[], double b[]) {
    for (int i = 0; i < n; i++) b[i] = a[i] * 2.0;
    for (int i = 1; i < n; i++) a[i] = a[i - 1] + 1.0;
    for (int i = 0; i < n; i++) a[i] = b[i] + a[i];
}
`

func TestEngineVerifyStage(t *testing.T) {
	e := engineWith(t, EngineConfig{Verify: true})
	reports := analyze(t, e, verifyProgram)
	verdicts := 0
	for _, r := range reports {
		if r.Parallel != (r.Verdict != nil) {
			t.Errorf("line %d: Parallel=%v but Verdict=%v", r.Line, r.Parallel, r.Verdict)
		}
		if r.Verdict != nil {
			verdicts++
			switch r.Verdict.Level {
			case verify.Safe, verify.Unknown, verify.Unsafe:
			default:
				t.Errorf("line %d: verdict outside the lattice: %+v", r.Line, r.Verdict)
			}
		}
	}
	if verdicts == 0 {
		t.Skip("model predicted no loop parallel; nothing to verify")
	}
	st, ok := e.VerifyStats()
	if !ok {
		t.Fatal("VerifyStats not ok with verification enabled")
	}
	if st.Safe+st.Unknown+st.Unsafe == 0 {
		t.Error("verdict counters never moved")
	}
	if r := analyze(t, e, verifyProgram); len(r) != len(reports) {
		t.Fatal("re-analysis changed loop count")
	}
	if _, ok := e.VerifyStats(); !ok {
		t.Error("VerifyStats flipped off mid-run")
	}
}

// TestEngineVerifyDeterministic pins the acceptance criterion: with the
// verification stage on, whole-report output is byte-identical across
// runs, worker counts and cache hits.
func TestEngineVerifyDeterministic(t *testing.T) {
	render := func(e *Engine) string {
		b, err := json.Marshal(analyze(t, e, verifyProgram))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	e := engineWith(t, EngineConfig{Verify: true, CacheSize: 64})
	first := render(e)
	// Second run is served from the cache: the stored verdict must replay
	// byte-for-byte, including findings.
	if got := render(e); got != first {
		t.Fatalf("cached run differs:\n%s\n--- vs ---\n%s", got, first)
	}
	for _, w := range []int{1, 2, 7} {
		// A fresh engine, so its cache recomputes instead of replaying.
		if got := render(engineWith(t, EngineConfig{Verify: true, CacheSize: 64, Workers: w})); got != first {
			t.Fatalf("workers=%d differs:\n%s\n--- vs ---\n%s", w, got, first)
		}
	}
}

func TestEngineVerifyDisabled(t *testing.T) {
	e := engine(t)
	reports := analyze(t, e, verifyProgram)
	for _, r := range reports {
		if r.Verdict != nil {
			t.Errorf("line %d: verdict attached with verification off", r.Line)
		}
	}
	if _, ok := e.VerifyStats(); ok {
		t.Error("VerifyStats ok with verification off")
	}
}

func TestCloneReportDetachesVerdict(t *testing.T) {
	orig := LoopReport{Verdict: &verify.Verdict{
		Level:    verify.Unsafe,
		Reason:   "r",
		Findings: []verify.Finding{{Check: "structure", Level: verify.Unsafe, Reason: "r"}},
	}}
	cl := cloneReport(orig)
	cl.Verdict.Level = verify.Safe
	cl.Verdict.Findings[0].Reason = "mutated"
	if orig.Verdict.Level != verify.Unsafe || orig.Verdict.Findings[0].Reason != "r" {
		t.Errorf("clone shares verdict storage with the original: %+v", orig.Verdict)
	}
}
