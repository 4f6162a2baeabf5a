package rewrite

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"graph2par/internal/cparse"
	"graph2par/internal/verify"
)

// FuzzRewrite holds the rewriter to its output promises on any source the
// parser accepts:
//
//   - RewriteSource never panics, and two runs give byte-identical plans
//     and output;
//   - the output re-parses;
//   - every plan that splices a pragma (rewritten or rewritten-atomic)
//     has a Safe verdict and passed the graph-identity gate.
func FuzzRewrite(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	// A recurrence over a parameter type the dynamic oracle skips, so only
	// the static dependence check keeps it from being rewritten.
	f.Add("void f(int *a, int n, unsigned char c) {\n    for (int i = 1; i < n; i++) {\n        a[i] = a[i - 1] + c;\n    }\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		res, err := RewriteSource(src)
		if err != nil {
			t.Skip()
		}
		again, err := RewriteSource(src)
		if err != nil {
			t.Fatalf("second run failed where the first succeeded: %v", err)
		}
		plans, err := json.Marshal(res.Loops)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		plans2, err := json.Marshal(again.Loops)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(plans) != string(plans2) || res.Output != again.Output {
			t.Fatalf("nondeterministic rewrite of %q:\n%s\n%s\n--- vs ---\n%s\n%s", src, plans, res.Output, plans2, again.Output)
		}
		if _, err := cparse.ParseFile(res.Output); err != nil {
			t.Fatalf("output does not re-parse: %v\n%s", err, res.Output)
		}
		for _, p := range res.Loops {
			if p.Status == StatusSuggestion {
				continue
			}
			if p.Verdict.Level != verify.Safe || !p.Validation.GraphIdentical {
				t.Fatalf("line %d %s with verdict %s, graph identical %v in %q",
					p.Line, p.Status, p.Verdict.Level, p.Validation.GraphIdentical, src)
			}
		}
	})
}
