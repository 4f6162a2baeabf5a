package rewrite

import (
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

func mustRewrite(t *testing.T, src string) *FileResult {
	t.Helper()
	res, err := RewriteSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeriveClausesReductionAndPrivate(t *testing.T) {
	src := `
double f(int n, double a[], double b[], double t) {
    double s = 0;
    for (int i = 0; i < n; i++) {
        t = a[i] * 2.0;
        b[i] = t + 1.0;
        s += a[i];
    }
    return s;
}
`
	res := mustRewrite(t, src)
	if len(res.Loops) != 1 {
		t.Fatalf("loops = %d", len(res.Loops))
	}
	p := res.Loops[0]
	if p.Status != StatusRewritten {
		t.Fatalf("status = %s (reason %q)", p.Status, p.Reason)
	}
	for _, want := range []string{"reduction(+:s)", "private(t)", "schedule(static)"} {
		if !strings.Contains(p.Pragma, want) {
			t.Errorf("pragma %q missing %q", p.Pragma, want)
		}
	}
	if !strings.Contains(res.Output, p.Pragma+"\n") {
		t.Errorf("output does not carry the derived pragma:\n%s", res.Output)
	}
}

func TestCollapseOnPerfectNestOnly(t *testing.T) {
	perfect := `
void f(int n, double a[][8]) {
    int i;
    int j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < 8; j++) {
            a[i][j] = a[i][j] * 2.0;
        }
    }
}
`
	res := mustRewrite(t, perfect)
	if got := res.Loops[0].Pragma; !strings.Contains(got, "collapse(2)") {
		t.Errorf("perfect nest pragma = %q, want collapse(2)", got)
	}
	if inner := res.Loops[1]; inner.Status != StatusSuggestion ||
		!strings.Contains(inner.Reason, "enclosing loop at line 5") {
		t.Errorf("inner loop: status %s reason %q", inner.Status, inner.Reason)
	}

	// A triangular inner loop reads the outer index: no collapse, and the
	// uneven iteration cost flips the schedule to dynamic.
	triangular := strings.Replace(perfect, "j = 0", "j = i", 1)
	res = mustRewrite(t, triangular)
	outer := res.Loops[0]
	if strings.Contains(outer.Pragma, "collapse") {
		t.Errorf("triangular nest pragma = %q, want no collapse", outer.Pragma)
	}
	if !strings.Contains(outer.Pragma, "schedule(dynamic)") {
		t.Errorf("triangular nest pragma = %q, want schedule(dynamic)", outer.Pragma)
	}
}

func TestAtomicRescue(t *testing.T) {
	src := `void hist(int n, int b[], double w[], double h[]) {
    for (int i = 0; i < n; i++) {
        h[b[i]] += w[i];
    }
}
`
	res := mustRewrite(t, src)
	p := res.Loops[0]
	if p.Status != StatusAtomic {
		t.Fatalf("status = %s (reason %q)", p.Status, p.Reason)
	}
	if len(p.AtomicLines) != 1 || p.AtomicLines[0] != 3 {
		t.Fatalf("atomic lines = %v", p.AtomicLines)
	}
	if strings.Contains(p.Pragma, "simd") {
		t.Errorf("atomic region may not sit under simd: %q", p.Pragma)
	}
	if !strings.Contains(res.Output, "#pragma omp atomic\n        h[b[i]] += w[i];") {
		t.Errorf("atomic line not spliced:\n%s", res.Output)
	}
	if p.Validation.Dynamic != "checked" {
		t.Errorf("dynamic = %q", p.Validation.Dynamic)
	}
}

func TestRewriteIsIdempotent(t *testing.T) {
	for _, src := range []string{
		`void saxpy(int n, double a, double x[], double y[]) {
    for (int i = 0; i < n; i++) {
        y[i] = y[i] + a * x[i];
    }
}
`,
		`void hist(int n, int b[], double w[], double h[]) {
    for (int i = 0; i < n; i++) {
        h[b[i]] += w[i];
    }
}
`,
	} {
		first := mustRewrite(t, src)
		if !first.Changed {
			t.Fatalf("first pass did not rewrite:\n%s", src)
		}
		second := mustRewrite(t, first.Output)
		if second.Output != first.Output {
			t.Errorf("second pass not a fixpoint:\nfirst:\n%s\nsecond:\n%s",
				first.Output, second.Output)
		}
	}
}

func TestSplicePreservesUntouchedBytes(t *testing.T) {
	src := "/* header   comment,  odd    spacing */\n" +
		"void scale(int n, double a[]) {\n" +
		"    /* inner comment */\n" +
		"    for (int i = 0; i < n; i++) {\n" +
		"        a[i] = a[i] * 2.0;   /* trailing */\n" +
		"    }\n" +
		"}\n"
	res := mustRewrite(t, src)
	if !res.Changed {
		t.Fatalf("not rewritten: %+v", res.Loops[0])
	}
	// Every original line must survive byte-for-byte; the rewrite only adds.
	for i, line := range strings.Split(strings.TrimSuffix(src, "\n"), "\n") {
		if !strings.Contains(res.Output, line) {
			t.Errorf("line %d lost: %q\noutput:\n%s", i+1, line, res.Output)
		}
	}
	if got := strings.Count(res.Output, "\n") - strings.Count(src, "\n"); got != 1 {
		t.Errorf("expected exactly one inserted line, got %d", got)
	}
}

func TestDynamicOracleCatchesRecurrence(t *testing.T) {
	// Statically this loop is rejected long before the dynamic stage; drive
	// the validator directly to prove the runtime oracle would catch it too.
	src := `void prefix(int n, double a[]) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] + a[i];
    }
}
`
	file, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	f := file.Loops()[0].Loop.(*cast.For)
	out := validateDynamic(file, fn, f, DeriveClauses(f))
	if out.status != "failed" || !strings.Contains(out.detail, `cross-iteration dependence on "a"`) {
		t.Errorf("outcome = %+v, want cross-iteration failure on a", out)
	}
}

func TestHarnessSkipsUnsupportedShapes(t *testing.T) {
	src := `void f(int n, double ***m) {
    for (int i = 0; i < n; i++) {
        m[i][0][0] = 1.0;
    }
}
`
	file, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := file.Loops()[0].Loop.(*cast.For)
	out := validateDynamic(file, file.Funcs[0], f, DeriveClauses(f))
	if out.status != "skipped" {
		t.Errorf("outcome = %+v, want skipped for a rank-3 pointer parameter", out)
	}
}

func TestWhileStaysSuggestionOnly(t *testing.T) {
	src := `void drain(int n, double a[]) {
    int i = 0;
    while (i < n) {
        a[i] = 0.0;
        i = i + 1;
    }
}
`
	res := mustRewrite(t, src)
	if res.Changed {
		t.Fatal("while loop must not be rewritten")
	}
	p := res.Loops[0]
	if p.Status != StatusSuggestion || p.Kind != "while" {
		t.Errorf("plan = %+v", p)
	}
}
