package graph2par

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixture is one small model, trained on first use and saved to a
// checkpoint from which tests and benchmarks build every other engine
// configuration they need.
type fixture struct {
	seed   uint64
	once   sync.Once
	engine *Engine // default configuration, as trained
	ckpt   string
	err    error
}

// fixtureDirs collects the fixtures' checkpoint directories for TestMain
// to remove.
var fixtureDirs []string

func (f *fixture) load(tb testing.TB) *fixture {
	tb.Helper()
	f.once.Do(func() {
		f.engine, f.err = NewEngine(EngineConfig{TrainScale: 0.01, Epochs: 3, Seed: f.seed, Quiet: true})
		if f.err != nil {
			return
		}
		dir, err := os.MkdirTemp("", "graph2par-test-")
		if err != nil {
			f.err = err
			return
		}
		fixtureDirs = append(fixtureDirs, dir)
		f.ckpt = filepath.Join(dir, "model.ckpt")
		f.err = f.engine.Save(f.ckpt)
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f
}

// build makes an engine with cfg from the fixture's checkpoint.
func (f *fixture) build(tb testing.TB, cfg EngineConfig) *Engine {
	tb.Helper()
	cfg.ModelPath = f.load(tb).ckpt
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range fixtureDirs {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

var testModel = &fixture{seed: 3}

// engine returns the shared test engine: the default configuration,
// trained once.
func engine(t *testing.T) *Engine {
	t.Helper()
	return testModel.load(t).engine
}

// engineWith builds an engine with cfg from the shared test checkpoint.
func engineWith(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	return testModel.build(t, cfg)
}

// analyze runs AnalyzeSourceContext with a live context and fails the
// test on error.
func analyze(t *testing.T, e *Engine, src string) []LoopReport {
	t.Helper()
	reports, err := e.AnalyzeSourceContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return reports
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
	reports := analyze(t, engine(t), simpleProgram)
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
	reports := analyze(t, engine(t), simpleProgram)
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

func TestEngineSuggestionForReduction(t *testing.T) {
	reports := analyze(t, engine(t), `
int main() {
    int vals[1000];
    int i, total = 0;
    for (i = 0; i < 1000; i++) vals[i] = i;
    for (i = 0; i < 1000; i++) total += vals[i];
    return total;
}
`)
	if len(reports) != 2 {
		t.Fatalf("loops = %d, want 2", len(reports))
	}
	r := reports[1]
	if r.Parallel && !strings.Contains(r.Suggestion, "reduction(+:total)") {
		t.Errorf("suggestion = %q, want reduction(+:total)", r.Suggestion)
	}
}

// TestFingerprintNamesStages: the fingerprint covers the stage set, so
// engines on one checkpoint that differ only in Verify or Rewrite never
// share a cache key, a peer fill or a warm push, while equal
// configurations agree. A cache-less engine computes no fingerprint.
func TestFingerprintNamesStages(t *testing.T) {
	if fp := engine(t).Fingerprint(); fp != "" {
		t.Errorf("cache-less engine fingerprint = %q, want empty", fp)
	}
	seen := map[string]string{}
	for _, cfg := range []EngineConfig{
		{CacheSize: 1},
		{CacheSize: 1, Verify: true},
		{CacheSize: 1, Rewrite: true},
		{CacheSize: 1, Verify: true, Rewrite: true},
	} {
		name := fmt.Sprintf("verify=%t rewrite=%t", cfg.Verify, cfg.Rewrite)
		fp := engineWith(t, cfg).Fingerprint()
		if again := engineWith(t, cfg).Fingerprint(); again != fp {
			t.Errorf("%s: fingerprint %s, then %s", name, fp, again)
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s shares its fingerprint with %s", name, prev)
		}
		seen[fp] = name
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
	orig := analyze(t, e, simpleProgram)
	rest := analyze(t, loaded, simpleProgram)
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
	if _, err := engine(t).AnalyzeSourceContext(context.Background(), "int main() { for (i=0 i<10; i++) ; }"); err == nil {
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
// RewriteSource, which is AnalyzeSourceContext (DiscoPoP included)
// followed by the rewrite splice.
func TestRunawayRecursionIsNotProfilable(t *testing.T) {
	res, err := engineWith(t, EngineConfig{Rewrite: true}).RewriteSource(runawayRecursion)
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
	e := engineWith(t, EngineConfig{Verify: true, Rewrite: true})
	reports, err := e.AnalyzeSourceContext(context.Background(), prototypeProgram)
	if err != nil || len(reports) != 1 {
		t.Fatalf("AnalyzeSourceContext: %d reports, %v; want 1 report", len(reports), err)
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
