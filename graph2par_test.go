package graph2par

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	testEngine     *Engine
	testEngineOnce sync.Once
	testEngineErr  error
)

// engine returns a shared, quickly trained engine.
func engine(t *testing.T) *Engine {
	t.Helper()
	testEngineOnce.Do(func() {
		testEngine, testEngineErr = NewEngine(EngineConfig{
			TrainScale: 0.01, Epochs: 3, Seed: 3, Quiet: true,
		})
	})
	if testEngineErr != nil {
		t.Fatal(testEngineErr)
	}
	return testEngine
}

const simpleProgram = `
int main() {
    int a[64], b[64];
    int i, s = 0;
    for (i = 0; i < 64; i++) b[i] = i;
    for (i = 0; i < 64; i++) a[i] = b[i] * 2;
    for (i = 1; i < 64; i++) a[i] = a[i-1] + 1;
    for (i = 0; i < 64; i++) s += a[i];
    return s;
}
`

func TestEngineAnalyzeSource(t *testing.T) {
	e := engine(t)
	reports, err := e.AnalyzeSource(simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("loops = %d, want 4", len(reports))
	}
	for _, r := range reports {
		if r.Line == 0 {
			t.Error("missing line number")
		}
		if r.Confidence <= 0 || r.Confidence > 1 {
			t.Errorf("confidence %v out of range", r.Confidence)
		}
		if len(r.Tools) != 3 {
			t.Errorf("tool verdicts = %d", len(r.Tools))
		}
		if r.GraphStats == "" {
			t.Error("missing graph stats")
		}
		out := r.Format()
		if !strings.Contains(out, "loop at line") {
			t.Errorf("format: %q", out)
		}
	}
	// reports sorted by line
	for i := 1; i < len(reports); i++ {
		if reports[i].Line < reports[i-1].Line {
			t.Error("reports not sorted by line")
		}
	}
}

func TestEngineToolsAgreeOnCleanLoops(t *testing.T) {
	e := engine(t)
	reports, err := e.AnalyzeSource(simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	// loop 2 (a[i] = b[i]*2) should be detected by all three tools; loop 3
	// (recurrence) by none.
	doall := reports[1]
	for _, tv := range doall.Tools {
		if !tv.Parallel {
			t.Errorf("%s should detect the do-all: %s", tv.Tool, tv.Reason)
		}
	}
	recur := reports[2]
	for _, tv := range recur.Tools {
		if tv.Parallel {
			t.Errorf("%s must reject the recurrence", tv.Tool)
		}
	}
}

func TestEngineAnalyzeLoopSnippet(t *testing.T) {
	e := engine(t)
	r, err := e.AnalyzeLoop("for (i = 0; i < n; i++) sum += a[i];")
	if err != nil {
		t.Fatal(err)
	}
	if r.Source == "" {
		t.Error("missing source")
	}
	// snippet: static tools that need files cannot process
	for _, tv := range r.Tools {
		if tv.Tool == "DiscoPoP" && tv.Processable {
			t.Error("DiscoPoP cannot process a bare snippet")
		}
	}
	if _, err := e.AnalyzeLoop("x = 1;"); err == nil {
		t.Error("non-loop should be rejected")
	}
}

func TestEngineSuggestionForReduction(t *testing.T) {
	e := engine(t)
	r, err := e.AnalyzeLoop("for (i = 0; i < 1000; i++) total += vals[i];")
	if err != nil {
		t.Fatal(err)
	}
	if r.Parallel && !strings.Contains(r.Suggestion, "reduction(+:total)") {
		t.Errorf("suggestion = %q, want reduction(+:total)", r.Suggestion)
	}
}

func TestEngineCheckpointRoundTrip(t *testing.T) {
	e := engine(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := e.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngine(EngineConfig{ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions before and after the round trip.
	orig, err := e.AnalyzeSource(simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := loaded.AnalyzeSource(simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i].Parallel != rest[i].Parallel {
			t.Errorf("loop %d prediction changed after checkpoint round trip", i)
		}
		if diff := orig[i].Confidence - rest[i].Confidence; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("loop %d confidence drifted: %v vs %v", i, orig[i].Confidence, rest[i].Confidence)
		}
	}
}

func TestEngineParseErrorSurface(t *testing.T) {
	e := engine(t)
	if _, err := e.AnalyzeSource("int main() { for (i=0 i<10; i++) ; }"); err == nil {
		t.Error("parse error should surface")
	}
}

// runawayRecursion calls a function with no base case from a loop. DiscoPoP
// and the rewrite oracle interpret main(), so without the interpreter's
// call-depth bound their runs overflow the goroutine stack, which ends the
// process instead of failing the request.
const runawayRecursion = `int f(int n) { return f(n + 1); }
int main() {
    int i, s = 0;
    for (i = 0; i < 8; i++) s += f(i);
    return s;
}
`

// TestRunawayRecursionIsNotProfilable runs the program through
// RewriteSource, which is AnalyzeSource (DiscoPoP included) followed by
// the rewrite splice.
func TestRunawayRecursionIsNotProfilable(t *testing.T) {
	e := *engine(t)
	e.SetRewrite(true)
	res, err := e.RewriteSource(runawayRecursion)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed {
		t.Errorf("a loop whose oracle run cannot finish was rewritten:\n%s", res.Output)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("loops = %d, want 1", len(res.Reports))
	}
	for _, tv := range res.Reports[0].Tools {
		if tv.Tool == "DiscoPoP" && (tv.Processable || !strings.Contains(tv.Reason, "call depth")) {
			t.Errorf("DiscoPoP verdict = %+v, want not profilable for call depth", tv)
		}
	}
}

// prototypeProgram declares g before main calls it and defines it after:
// the forward declaration real C files routinely carry. A prototype has
// no body, and every loop walk must skip it.
const prototypeProgram = "int g(int x);\nint main() { int i, s = 0; for (i = 0; i < 4; i++) s += g(i); return s; }\nint g(int x) { return x * 2; }"

// TestPrototypeSource runs a file with a prototype through every
// file-level entry point, with the verify and rewrite stages on.
func TestPrototypeSource(t *testing.T) {
	e := *engine(t)
	e.SetVerify(true)
	e.SetRewrite(true)
	reports, err := e.AnalyzeSource(prototypeProgram)
	if err != nil || len(reports) != 1 {
		t.Fatalf("AnalyzeSource: %d reports, %v; want 1 report", len(reports), err)
	}
	files, err := e.AnalyzeFiles(map[string]string{"proto.c": prototypeProgram})
	if err != nil || len(files["proto.c"]) != 1 {
		t.Fatalf("AnalyzeFiles: %d reports, %v; want 1 report", len(files["proto.c"]), err)
	}
	res, err := e.RewriteSource(prototypeProgram)
	if err != nil || len(res.Reports) != 1 {
		t.Fatalf("RewriteSource: %v, %v; want 1 report", res, err)
	}
}
