package cparse

import (
	"strings"
	"testing"
	"testing/quick"

	"graph2par/internal/cast"
)

func mustStmt(t *testing.T, src string) cast.Stmt {
	t.Helper()
	s, err := ParseStmt(src)
	if err != nil {
		t.Fatalf("ParseStmt(%q): %v", src, err)
	}
	return s
}

func mustExpr(t *testing.T, src string) cast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestParseListing1(t *testing.T) {
	// Listing 1 of the paper.
	src := `for (i = 0; i < 30000000; i++)
        error = error + fabs(a[i] - a[i+1]);`
	s := mustStmt(t, src)
	loop, ok := s.(*cast.For)
	if !ok {
		t.Fatalf("got %T, want *cast.For", s)
	}
	if loop.Cond == nil || loop.Post == nil || loop.Init == nil {
		t.Fatal("for parts missing")
	}
	body, ok := loop.Body.(*cast.ExprStmt)
	if !ok {
		t.Fatalf("body %T", loop.Body)
	}
	asn, ok := body.X.(*cast.Assign)
	if !ok {
		t.Fatalf("body expr %T", body.X)
	}
	// RHS is error + fabs(...)
	bin, ok := asn.RHS.(*cast.Binary)
	if !ok || bin.Op != "+" {
		t.Fatalf("rhs %T", asn.RHS)
	}
	call, ok := bin.Y.(*cast.Call)
	if !ok {
		t.Fatalf("call %T", bin.Y)
	}
	if name, ok := call.Fun.(*cast.Ident); !ok || name.Name != "fabs" {
		t.Errorf("callee = %v", cast.PrintExpr(call.Fun))
	}
}

func TestParseNestedLoops(t *testing.T) {
	// Listing 5 of the paper.
	src := `for (j = 0; j < 4; j++)
        for (i = 0; i < 5; i++)
            for (k = 0; k < 6; k += 2)
                l++;`
	s := mustStmt(t, src)
	depth := 0
	cast.Walk(s, func(n cast.Node) bool {
		if _, ok := n.(*cast.For); ok {
			depth++
		}
		return true
	})
	if depth != 3 {
		t.Errorf("nested for count = %d, want 3", depth)
	}
}

func TestPragmaAttachesToLoop(t *testing.T) {
	src := `#pragma omp parallel for reduction(+:sum)
for (i = 0; i < n; i++) sum += a[i];`
	s := mustStmt(t, src)
	loop := s.(*cast.For)
	if !strings.Contains(loop.Pragma, "reduction(+:sum)") {
		t.Errorf("pragma = %q", loop.Pragma)
	}
}

func TestStackedPragmas(t *testing.T) {
	src := "#pragma omp parallel\n#pragma omp for\nfor (i = 0; i < n; i++) x++;"
	s := mustStmt(t, src)
	loop := s.(*cast.For)
	if !strings.Contains(loop.Pragma, "omp parallel") || !strings.Contains(loop.Pragma, "omp for") {
		t.Errorf("pragma = %q", loop.Pragma)
	}
}

func TestParseDeclInForInit(t *testing.T) {
	s := mustStmt(t, "for (int i = 0; i < 10; ++i) { a[i] = 0; }")
	loop := s.(*cast.For)
	ds, ok := loop.Init.(*cast.DeclStmt)
	if !ok {
		t.Fatalf("init %T", loop.Init)
	}
	if ds.Decls[0].Name != "i" || ds.Decls[0].Type != "int" {
		t.Errorf("decl = %+v", ds.Decls[0])
	}
}

func TestParseFile(t *testing.T) {
	src := `
#include <math.h>
int N = 100;
float square(int x) {
    int k = 0;
    while (k < 5000)
        k++;
    return sqrt(x);
}
int main() {
    float vector[64];
    for (int i = 0; i < 64; i++) {
        vector[i] = square(vector[i]);
    }
    return 0;
}
`
	f, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(f.Funcs))
	}
	if f.Funcs[0].Name != "square" || f.Funcs[1].Name != "main" {
		t.Errorf("names = %s, %s", f.Funcs[0].Name, f.Funcs[1].Name)
	}
	if len(f.Globals) != 1 || f.Globals[0].Name != "N" {
		t.Errorf("globals = %+v", f.Globals)
	}
	if len(f.Funcs[0].Params) != 1 || f.Funcs[0].Params[0].Name != "x" {
		t.Errorf("params = %+v", f.Funcs[0].Params)
	}
}

func TestMemberAccessArrowChain(t *testing.T) {
	// Shape of Listing 2.
	e := mustExpr(t, "abs(objetivo[i].r - individuo->imagen[i].r)")
	call := e.(*cast.Call)
	bin := call.Args[0].(*cast.Binary)
	m1 := bin.X.(*cast.Member)
	if m1.Arrow || m1.Name != "r" {
		t.Errorf("m1 = %+v", m1)
	}
	m2 := bin.Y.(*cast.Member)
	if !strings.Contains(cast.PrintExpr(m2), "individuo->imagen[i].r") {
		t.Errorf("m2 printed = %s", cast.PrintExpr(m2))
	}
}

func TestPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a + b * c", "a + b * c"},
		{"(a + b) * c", "(a + b) * c"},
		{"a = b = c", "a = b = c"},
		{"a < b && c > d || e", "a < b && c > d || e"},
		{"-a[i]", "-a[i]"},
		{"*p++", "*p++"},
		{"a ? b : c ? d : e", "a ? b : c ? d : e"},
		{"x << 2 | y & 3", "x << 2 | y & 3"},
	}
	for _, c := range cases {
		e := mustExpr(t, c.src)
		if got := cast.PrintExpr(e); got != c.want {
			t.Errorf("%q printed as %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPrecedenceShape(t *testing.T) {
	e := mustExpr(t, "a + b * c")
	bin := e.(*cast.Binary)
	if bin.Op != "+" {
		t.Fatalf("root op %q", bin.Op)
	}
	if inner, ok := bin.Y.(*cast.Binary); !ok || inner.Op != "*" {
		t.Errorf("rhs = %s", cast.PrintExpr(bin.Y))
	}
}

func TestCastVsParen(t *testing.T) {
	e := mustExpr(t, "(int)x + (y)")
	bin := e.(*cast.Binary)
	if _, ok := bin.X.(*cast.CastExpr); !ok {
		t.Errorf("lhs = %T, want cast", bin.X)
	}
	if _, ok := bin.Y.(*cast.Ident); !ok {
		t.Errorf("rhs = %T, want ident", bin.Y)
	}
}

func TestSizeof(t *testing.T) {
	e := mustExpr(t, "sizeof(int) + sizeof(a)")
	bin := e.(*cast.Binary)
	sz1 := bin.X.(*cast.SizeofExpr)
	if sz1.Type != "int" || sz1.X != nil {
		t.Errorf("sizeof(int) parsed as %+v", sz1)
	}
	sz2 := bin.Y.(*cast.SizeofExpr)
	if sz2.X == nil {
		t.Errorf("sizeof(a) parsed as %+v", sz2)
	}
}

func TestSwitchCaseDefault(t *testing.T) {
	s := mustStmt(t, `switch (x) { case 1: y = 2; break; default: y = 3; }`)
	sw := s.(*cast.Switch)
	body := sw.Body.(*cast.Compound)
	var caseCount, defCount int
	for _, it := range body.Items {
		if c, ok := it.(*cast.Case); ok {
			if c.Val == nil {
				defCount++
			} else {
				caseCount++
			}
		}
	}
	if caseCount != 1 || defCount != 1 {
		t.Errorf("cases=%d defaults=%d", caseCount, defCount)
	}
}

func TestDoWhileAndGoto(t *testing.T) {
	s := mustStmt(t, "do { x--; if (x < 0) goto out; } while (x > 0);")
	if _, ok := s.(*cast.DoWhile); !ok {
		t.Fatalf("got %T", s)
	}
	s2 := mustStmt(t, "{ out: return; }")
	blk := s2.(*cast.Compound)
	if _, ok := blk.Items[0].(*cast.Label); !ok {
		t.Errorf("label missing: %T", blk.Items[0])
	}
}

func TestMultiDeclarator(t *testing.T) {
	s := mustStmt(t, "int i = 0, j, *p, a[10];")
	ds := s.(*cast.DeclStmt)
	if len(ds.Decls) != 4 {
		t.Fatalf("decls = %d", len(ds.Decls))
	}
	if ds.Decls[2].Pointer != 1 {
		t.Errorf("p pointer = %d", ds.Decls[2].Pointer)
	}
	if len(ds.Decls[3].ArrayDims) != 1 {
		t.Errorf("a dims = %d", len(ds.Decls[3].ArrayDims))
	}
}

func TestStructDefSkippedAndMembersParse(t *testing.T) {
	src := `
struct pixel { int r; int g; int b; };
int main() {
    struct pixel img[10];
    int i, total = 0;
    for (i = 0; i < 10; i++) total += img[i].r;
    return total;
}`
	f, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 1 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := ParseFile("int main() { for (i=0 i<10; i++) ; }")
	if err == nil {
		t.Fatal("want parse error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Pos.Line != 1 {
		t.Errorf("pos = %v", pe.Pos)
	}
}

func TestUnterminatedBlock(t *testing.T) {
	if _, err := ParseFile("int main() { int x = 1;"); err == nil {
		t.Error("want error for unterminated block")
	}
}

// Property: printing a parsed expression and re-parsing yields the same
// printed form (print∘parse is a fixpoint).
func TestQuickPrintParseFixpoint(t *testing.T) {
	exprs := []string{
		"a + b * c - d / e % f",
		"a[i] + b[i+1] * c[2*i]",
		"f(a, g(b), c + d)",
		"x && y || !z",
		"p->next->val + q.field",
		"(float)n / (float)m",
		"i++ + ++j",
		"a ? b + 1 : c - 1",
		"x << 3 >> y & mask | bits ^ flip",
		"sum += a[i][j] * v[j]",
	}
	for _, src := range exprs {
		e1 := mustExpr(t, src)
		p1 := cast.PrintExpr(e1)
		e2 := mustExpr(t, p1)
		p2 := cast.PrintExpr(e2)
		if p1 != p2 {
			t.Errorf("not fixpoint: %q -> %q -> %q", src, p1, p2)
		}
	}
}

// Property: parser never panics on arbitrary token soup.
func TestQuickParserNoPanic(t *testing.T) {
	pieces := []string{"for", "(", ")", "{", "}", ";", "i", "0", "<", "++", "int", "=", "+", "a", "[", "]", "if", "else", "while", ","}
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, k := range idx {
			b.WriteString(pieces[int(k)%len(pieces)])
			b.WriteByte(' ')
		}
		_, _ = ParseFile(b.String())
		_, _ = ParseStmt(b.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Walk visits every node exactly once (count equals sum over
// children + 1 recursively) for a corpus of statements.
func TestWalkCountConsistent(t *testing.T) {
	srcs := []string{
		"for (i = 0; i < 10; i++) a[i] = b[i] + c[i];",
		"if (x > 0) { y = 1; } else { y = 2; }",
		"while (k < 5000) k++;",
	}
	var count func(n cast.Node) int
	count = func(n cast.Node) int {
		total := 1
		for _, c := range cast.AppendChildren(n, nil) {
			total += count(c)
		}
		return total
	}
	for _, src := range srcs {
		s := mustStmt(t, src)
		if got, want := cast.CountNodes(s), count(s); got != want {
			t.Errorf("%q: CountNodes=%d, recursive=%d", src, got, want)
		}
	}
}
