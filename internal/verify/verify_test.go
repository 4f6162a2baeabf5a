package verify

import (
	"encoding/json"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// one parses src, verifies its loops and returns the verdict of the first.
func one(t *testing.T, src string) Verdict {
	t.Helper()
	vs, err := VerifySource(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(vs) == 0 {
		t.Fatalf("no loops in:\n%s", src)
	}
	return vs[0].Verdict
}

// expect asserts the verdict level and that the headline reason mentions
// every given fragment.
func expect(t *testing.T, v Verdict, want Level, fragments ...string) {
	t.Helper()
	if v.Level != want {
		t.Fatalf("level = %s, want %s (reason %q, findings %+v)", v.Level, want, v.Reason, v.Findings)
	}
	for _, f := range fragments {
		if !strings.Contains(v.Reason, f) {
			t.Errorf("reason %q does not mention %q", v.Reason, f)
		}
	}
}

func TestSafeSaxpy(t *testing.T) {
	v := one(t, `
void saxpy(int n, double a, double x[], double y[]) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        y[i] = y[i] + a * x[i];
    }
}`)
	// x is read-only and y is only written at [i]: safe — but x and y are
	// distinct pointer parameters with cross-access only at equal
	// subscripts, so the alias check stays quiet too.
	expect(t, v, Safe)
	if len(v.Findings) != 0 {
		t.Errorf("safe verdict carries findings: %+v", v.Findings)
	}
	if v.Reason != "" || v.Line != 0 {
		t.Errorf("safe verdict carries reason/pos: %+v", v)
	}
}

func TestWhileLoopUnsafe(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    int i = 0;
    while (i < n) { a[i] = 0; i++; }
}`)
	expect(t, v, Unsafe, "canonical for loop")
}

func TestBreakEscapes(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        if (a[i] < 0) break;
        a[i] = 2 * a[i];
    }
}`)
	expect(t, v, Unsafe, "break")
	if v.Line == 0 {
		t.Error("break finding lost its position")
	}
}

func TestReturnEscapes(t *testing.T) {
	v := one(t, `
int f(int n, int a[]) {
    for (int i = 0; i < n; i++) {
        if (a[i] == 7) return i;
    }
    return 0 - 1;
}`)
	expect(t, v, Unsafe, "return")
}

func TestNestedBreakIsFine(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            if (j == 3) break;
            a[i] = a[i] + j;
        }
    }
}`)
	expect(t, v, Safe)
}

func TestCarriedArrayDependence(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] + 1;
    }
}`)
	expect(t, v, Unsafe, "a")
	if v.Findings[0].Check != "dependence" {
		t.Errorf("check = %s, want dependence", v.Findings[0].Check)
	}
}

func TestCarriedScalar(t *testing.T) {
	v := one(t, `
void f(int n, double a[], double x) {
    for (int i = 0; i < n; i++) {
        x = x * a[i] + 1;
        a[i] = x;
    }
}`)
	expect(t, v, Unsafe, "loop-carried", "x")
}

func TestInductionVariableWrite(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = 0;
        i = i + 2;
    }
}`)
	expect(t, v, Unsafe, "induction variable")
}

func TestReductionClauseVerified(t *testing.T) {
	src := `
double sum(int n, double a[]) {
    double s = 0;
    #pragma omp parallel for reduction(%s:s)
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}`
	// Correct operator: clean.
	v := one(t, strings.Replace(src, "%s", "+", 1))
	expect(t, v, Safe)
	// Wrong operator: unsafe.
	v = one(t, strings.Replace(src, "%s", "*", 1))
	expect(t, v, Unsafe, "operator mismatch", "s")
}

func TestMissingReductionClause(t *testing.T) {
	v := one(t, `
double sum(int n, double a[]) {
    double s = 0;
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}`)
	expect(t, v, Unsafe, "missing reduction(+:s)")
}

func TestPrivateClauseVerified(t *testing.T) {
	src := `
void f(int n, double a[], double b[], double t) {
    #pragma omp parallel for%s
    for (int i = 0; i < n; i++) {
        t = a[i] + 1;
        b[i] = t * t;
    }
}`
	v := one(t, strings.Replace(src, "%s", " private(t)", 1))
	expect(t, v, Safe)
	v = one(t, strings.Replace(src, "%s", "", 1))
	expect(t, v, Unsafe, "must be private", "t")
}

func TestSpuriousPrivateOfReadOnly(t *testing.T) {
	v := one(t, `
void f(int n, double a[], double c) {
    #pragma omp parallel for private(c)
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * c;
    }
}`)
	expect(t, v, Unsafe, "uninitialized", "c")
}

func TestSpuriousPrivateOfUnusedIsUnknown(t *testing.T) {
	v := one(t, `
void f(int n, double a[], double z) {
    #pragma omp parallel for private(z)
    for (int i = 0; i < n; i++) {
        a[i] = a[i] + 1;
    }
}`)
	expect(t, v, Unknown, "never uses", "z")
}

func TestPurityTable(t *testing.T) {
	// printf: I/O, unsafe.
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        printf("%f", a[i]);
        a[i] = a[i] + 1;
    }
}`)
	expect(t, v, Unsafe, "printf", "I/O")

	// sqrt/fabs: vetted pure, safe.
	v = one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = sqrt(fabs(a[i]));
    }
}`)
	expect(t, v, Safe)

	// unknown extern: unknown.
	v = one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = mystery(a[i]);
    }
}`)
	expect(t, v, Unknown, "unknown function", "mystery")
}

func TestDefinedFunctionPurity(t *testing.T) {
	// Pure helper: safe.
	v := one(t, `
double square(double x) { double y = x * x; return y; }
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = square(a[i]);
    }
}`)
	expect(t, v, Safe)

	// Helper writing a global: unsafe.
	v = one(t, `
int hits;
double count(double x) { hits = hits + 1; return x; }
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = count(a[i]);
    }
}`)
	expect(t, v, Unsafe, "count", "hits")

	// Helper writing through a pointer parameter: unsafe.
	v = one(t, `
void bump(double *p) { *p = *p + 1; }
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        bump(&a[i]);
    }
}`)
	expect(t, v, Unsafe, "bump", "pointer parameter")

	// Recursion: unknown, no hang.
	v = one(t, `
int fib(int k) { if (k < 2) return k; return fib(k - 1) + fib(k - 2); }
void f(int n, int a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = fib(i);
    }
}`)
	expect(t, v, Unknown, "fib")
}

func TestAliasHazard(t *testing.T) {
	// Shifted cross-access between two pointer params: may alias, unknown.
	v := one(t, `
void f(int n, double a[], double b[]) {
    for (int i = 1; i < n; i++) {
        a[i] = b[i - 1] + 1;
    }
}`)
	expect(t, v, Unknown, "may alias")

	// Same-subscript cross-access: harmless even when aliased.
	v = one(t, `
void f(int n, double a[], double b[]) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
    }
}`)
	expect(t, v, Safe)
}

func TestContinueUnderOrdered(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    #pragma omp parallel for ordered
    for (int i = 0; i < n; i++) {
        if (a[i] < 0) continue;
        a[i] = a[i] + 1;
    }
}`)
	expect(t, v, Unsafe, "ordered")
}

func TestArrayEscapingIntoCall(t *testing.T) {
	v := one(t, `
void f(int n, double a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = helper(a, i);
    }
}`)
	// Both the dependence check (array escapes into the call) and the
	// purity check (unknown callee) must fire; worst wins.
	expect(t, v, Unsafe, "escapes into a function call")
}

func TestLevelEncoding(t *testing.T) {
	for _, l := range []Level{Safe, Unknown, Unsafe} {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Errorf("round trip %s -> %s -> %s", l, b, back)
		}
		if got, ok := ParseLevel(l.String()); !ok || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, ok)
		}
	}
	if _, ok := ParseLevel("bogus"); ok {
		t.Error("ParseLevel accepted bogus")
	}
	var l Level
	if err := l.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("UnmarshalText accepted bogus")
	}
	if worse(Safe, Unsafe) != Unsafe || worse(Unknown, Safe) != Unknown {
		t.Error("worse is not the lattice join")
	}
}

// TestDeterministic pins the acceptance criterion: verdicts are
// byte-identical across repeated runs over freshly parsed ASTs.
func TestDeterministic(t *testing.T) {
	src := `
int total;
void helper(double *out, double v) { *out = v; }
double mix(int n, double a[], double b[], double t) {
    double s = 0;
    #pragma omp parallel for reduction(+:s)
    for (int i = 1; i < n; i++) {
        t = sqrt(a[i]);
        s += t * b[i - 1];
        helper(&a[i], t);
        unknown_fn(i);
        printf("%d", i);
    }
    while (n > 0) { n--; }
    return s;
}`
	render := func() string {
		vs, err := VerifySource(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(vs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n%s\n--- vs ---\n%s", i, got, first)
		}
	}
}

// TestVerdictFindingsOrder pins that findings come out in check
// registration order, the golden files' stability contract.
func TestVerdictFindingsOrder(t *testing.T) {
	v := one(t, `
void f(int n, double a[], double s) {
    for (int i = 1; i < n; i++) {
        if (a[i] < 0) break;
        s = s * a[i];
        a[i] = a[i - 1] + rand();
    }
}`)
	if v.Level != Unsafe {
		t.Fatalf("level = %s", v.Level)
	}
	var checks []string
	for _, f := range v.Findings {
		checks = append(checks, f.Check)
	}
	order := map[string]int{"structure": 0, "dependence": 1, "clauses": 2, "purity": 3, "alias": 4}
	for i := 1; i < len(checks); i++ {
		if order[checks[i-1]] > order[checks[i]] {
			t.Fatalf("findings out of suite order: %v", checks)
		}
	}
	if len(checks) < 3 {
		t.Fatalf("expected findings from several checks, got %v", checks)
	}
}

func TestSnippetWithoutFile(t *testing.T) {
	// Verify must cope with File == nil (engine snippet path): defined-
	// function recursion is impossible, unknown calls stay Unknown.
	st, err := cparse.ParseStmt(`for (int i = 0; i < 10; i++) { a[i] = a[i] + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	v := Verify(Request{Loop: st.(cast.Stmt)})
	if v.Level != Safe {
		t.Fatalf("bare snippet: %+v", v)
	}
}

func TestCheckDocs(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Checks() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("check %+v incomplete", c)
		}
		if names[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		names[c.Name] = true
	}
	if len(names) != 5 {
		t.Errorf("expected the 5 paper checks, have %d", len(names))
	}
}
