package auggraph

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"graph2par/internal/cparse"
)

// goldenSources is a fixed set of loops spanning the front-end's feature
// surface: plain countable loops, reductions, nested loops, calls into
// defined functions, control flow inside the body, while-loops, and
// literal/type variety. The golden file pins the exact aug-AST (every node
// field and every edge) these sources produce, so any refactor of the
// lexer, parser, CFG, or graph builder that changes a single byte of the
// representation — and with it cache keys and model inputs — fails loudly.
var goldenSources = []struct {
	name string
	file string // optional translation unit providing Funcs context
	loop string
}{
	{name: "simple_sum", loop: `for (i = 0; i < n; i++) sum = sum + a[i];`},
	{name: "decl_init", loop: `for (int i = 0; i < 100; i++) { a[i] = b[i] * 2.5f; }`},
	{name: "nested", loop: `for (i = 0; i < n; i++) { for (j = 0; j < m; j++) { c[i][j] = a[i][j] + b[j][i]; } }`},
	{name: "reduction_mul", loop: `for (i = 1; i <= n; i++) { p *= x[i]; }`},
	{name: "branchy", loop: `for (i = 0; i < n; i++) { if (a[i] > 0) { pos++; } else { neg++; } }`},
	{name: "while_loop", loop: `while (k < 64) { total += buf[k]; k = k + 2; }`},
	{name: "break_continue", loop: `for (i = 0; i < n; i++) { if (a[i] == 0) continue; if (a[i] < 0) break; s += a[i]; }`},
	{name: "chars_strings", loop: `for (i = 0; i < n; i++) { if (s[i] == 'x') cnt = cnt + 1; }`},
	{
		name: "call_linked",
		file: `int sq(int v) { return v * v; }
void kernel(int n, int a[], int out[]) {
  int i;
  for (i = 0; i < n; i++) { out[i] = sq(a[i]); }
}`,
		loop: `for (i = 0; i < n; i++) { out[i] = sq(a[i]); }`,
	},
	{
		name: "recursive_call",
		file: `int fib(int v) { if (v < 2) return v; return fib(v - 1) + fib(v - 2); }
void fill(int n, int a[]) {
  int i;
  for (i = 0; i < n; i++) { a[i] = fib(i); }
}`,
		loop: `for (i = 0; i < n; i++) { a[i] = fib(i); }`,
	},
	{name: "member_access", loop: `for (i = 0; i < n; i++) { pts[i].x = pts[i].y * 2; }`},
	{name: "symbolic_stride", loop: `for (ii = 0; ii < n; ii = ii + stride) acc += w[ii] * v[ii];`},
}

// goldenConfigs are the option sets whose output the golden file pins: the
// full aug-AST used in production, plus the vanilla-AST ablation baseline
// and a raw-identifier variant.
var goldenConfigs = []struct {
	name string
	opts Options
}{
	{name: "default", opts: Default()},
	{name: "vanilla", opts: VanillaAST()},
	{name: "no_normalize", opts: Options{CFG: true, Lexical: true, Reverse: true}},
}

// dumpGraph serializes every field of every node and edge in a stable
// plain-text form — Graph.Canon, which is the production serialization the
// rewriter's round-trip validator compares loops through. Anything
// byte-relevant to vocab encoding, cache keys or DOT rendering appears in
// it, and this golden pins it.
func dumpGraph(b *strings.Builder, g *Graph) {
	b.WriteString(g.Canon())
}

func buildFromSource(t *testing.T, src, file string, opts Options) *Graph {
	t.Helper()
	loop, err := cparse.ParseStmt(src)
	if err != nil {
		t.Fatalf("parse loop: %v", err)
	}
	if file != "" {
		f, err := cparse.ParseFile(file)
		if err != nil {
			t.Fatalf("parse file: %v", err)
		}
		opts.Funcs = f.DefinedFuncs()
	}
	return Build(loop, opts)
}

func buildGoldenDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, gs := range goldenSources {
		for _, cfgc := range goldenConfigs {
			g := buildFromSource(t, gs.loop, gs.file, cfgc.opts)
			fmt.Fprintf(&b, "=== %s/%s\n", gs.name, cfgc.name)
			dumpGraph(&b, g)
		}
	}
	return b.String()
}

const goldenPath = "testdata/golden_graphs.txt"

// TestGoldenGraphs pins the byte-exact augmented AST across every golden
// source and option set. Regenerate with GOLDEN_UPDATE=1 go test — but only
// when a representation change is intended; cache keys and model inputs
// change with it.
func TestGoldenGraphs(t *testing.T) {
	got := buildGoldenDump(t)
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file regenerated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run GOLDEN_UPDATE=1 go test ./internal/auggraph): %v", err)
	}
	if got != string(want) {
		t.Fatalf("aug-AST output diverged from golden file.\nThis means graphs, and with them vocab encodings and cache keys, changed.\nIf intended, regenerate with GOLDEN_UPDATE=1.\n%s", firstDiff(got, string(want)))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(got, want string) string {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("first diff at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}
