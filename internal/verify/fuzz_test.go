package verify_test

import (
	"encoding/json"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/rewrite"
	"graph2par/internal/verify"
)

// FuzzVerify feeds arbitrary C sources through the full parse+verify
// pipeline. The properties under test: never panic, the verdict for a
// given input is deterministic (two independent runs produce
// byte-identical JSON), and the directive the rewriter derives for any
// for-loop draws no clauses finding (the check and the rewriter read one
// rule, verify.Clauses).
func FuzzVerify(f *testing.F) {
	f.Add(`void f(int n, double a[]) { for (int i = 0; i < n; i++) { a[i] = a[i] + 1; } }`)
	f.Add(`void f(int n, double a[]) { for (int i = 1; i < n; i++) { a[i] = a[i-1]; } }`)
	f.Add("double s(int n, double a[]) {\n  double t = 0;\n  #pragma omp parallel for reduction(+:t)\n  for (int i = 0; i < n; i++) t += a[i];\n  return t;\n}")
	f.Add(`void f() { while (1) { break; } }`)
	f.Add(`int g(int x) { return g(x - 1); } void f(int n, int a[]) { for (int i = 0; i < n; i++) a[i] = g(i); }`)
	f.Add(`#pragma omp parallel for private(q) ordered`)
	f.Add(`int f(int n, int a[], int t) { int s = 0; for (int i = 0; i < n; i++) { if (a[i]) t = a[i]; a[i] = t; s += t; { int u = s; a[i] += u; } } return s; }`)
	f.Fuzz(func(t *testing.T, src string) {
		vs, err := verify.VerifySource(src)
		if err != nil {
			return // unparseable input: nothing to verify
		}
		b1, err := json.Marshal(vs)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		vs2, err := verify.VerifySource(src)
		if err != nil {
			t.Fatalf("second parse failed where first succeeded: %v", err)
		}
		b2, err := json.Marshal(vs2)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("nondeterministic verdict for %q:\n%s\n--- vs ---\n%s", src, b1, b2)
		}
		for _, v := range vs {
			if v.Verdict.Level != verify.Safe && v.Verdict.Level != verify.Unknown && v.Verdict.Level != verify.Unsafe {
				t.Fatalf("verdict outside the lattice: %+v", v)
			}
		}
		file, err := cparse.ParseFile(src)
		if err != nil {
			t.Fatalf("third parse failed where the first succeeded: %v", err)
		}
		for _, l := range file.Loops() {
			loop, ok := l.Loop.(*cast.For)
			if !ok {
				continue
			}
			cp := rewrite.DeriveClauses(loop)
			prag := cp.Render()
			v := verify.Verify(verify.Request{Loop: loop, File: file, Fn: l.Fn, Pragma: prag})
			for _, fd := range v.Findings {
				if fd.Check == "clauses" {
					t.Fatalf("derived %q draws %+v in %q", prag, fd, src)
				}
			}
		}
	})
}
