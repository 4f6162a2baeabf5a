package cparse

import (
	"errors"
	"strings"
	"testing"

	"graph2par/internal/cast"
)

// TestMalformedLoopHeaders pins the parser's error behaviour on broken
// loop headers: every case must return a positioned *Error (or the lexer's
// positioned error) — never panic, never succeed.
func TestMalformedLoopHeaders(t *testing.T) {
	cases := []string{
		`for (i = 0; i < ; i++) x = 1;`,
		`for (i = 0 i < n; i++) x = 1;`,
		`for (i = 0; i < n; i++ x = 1;`,
		`for i = 0; i < n; i++) x = 1;`,
		`for (int = 0; i < n; i++) x = 1;`,
		`while () x = 1;`,
		`while (n { x = 1; }`,
		`do { x = 1; } while x < 3);`,
		`do { x = 1; } while (x < 3`,
		`for (;;`,
		`for (i = 0; i < n; i++)`,
	}
	for _, src := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q: parser panicked: %v", src, r)
				}
			}()
			st, err := ParseStmt(src)
			if err == nil {
				t.Errorf("%q: parsed successfully (%T), want error", src, st)
				return
			}
			switch e := err.(type) {
			case *Error:
				if e.Pos.Line < 1 || e.Pos.Col < 1 {
					t.Errorf("%q: error lacks a position: %v", src, err)
				}
			default:
				// Lexer errors (their own positioned type) are fine too.
				if !strings.Contains(err.Error(), ":") {
					t.Errorf("%q: unpositioned error %v", src, err)
				}
			}
		}()
	}
}

// TestMalformedLoopInFile pins that a malformed loop inside a translation
// unit reports the loop's position, so callers can point at the line.
func TestMalformedLoopInFile(t *testing.T) {
	src := "int main() {\n  int i;\n  for (i = 0; i < ; i++) { i = i; }\n  return 0;\n}\n"
	_, err := ParseFile(src)
	if err == nil {
		t.Fatal("want parse error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T, want *cparse.Error", err)
	}
	if pe.Pos.Line != 3 {
		t.Errorf("error line = %d, want 3 (the malformed header): %v", pe.Pos.Line, err)
	}
}

// TestAdjacentStringConcatenation pins C's translation-phase-6 literal
// pasting: adjacent string literals parse as one StringLit.
func TestAdjacentStringConcatenation(t *testing.T) {
	e, err := ParseExpr(`"abc" "def" "ghi"`)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*cast.StringLit)
	if !ok {
		t.Fatalf("parsed %T, want *cast.StringLit", e)
	}
	if want := `"abc" "def" "ghi"`; lit.Text != want {
		t.Errorf("Text = %q, want %q", lit.Text, want)
	}

	// And inside a call, where the old parser tripped over the second
	// literal.
	st, err := ParseStmt(`printf("a" "b", x);`)
	if err != nil {
		t.Fatal(err)
	}
	call, ok := st.(*cast.ExprStmt).X.(*cast.Call)
	if !ok {
		t.Fatalf("parsed %T, want call statement", st)
	}
	if len(call.Args) != 2 {
		t.Fatalf("args = %d, want 2 (pasted literal + x)", len(call.Args))
	}
}

// TestSessionReuseAfterError pins that a parse error leaves the session
// usable: the next parse on the same session succeeds and is equal to a
// fresh one.
func TestSessionReuseAfterError(t *testing.T) {
	sess := NewSession()
	if _, err := sess.ParseFile("int main( {"); err == nil {
		t.Fatal("want error")
	}
	good := "int main() { int i; for (i = 0; i < 4; i++) { i = i; } return 0; }"
	f, err := sess.ParseFile(good)
	if err != nil {
		t.Fatalf("session unusable after error: %v", err)
	}
	want, err := ParseFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if cast.Print(f.Funcs[0].Body) != cast.Print(want.Funcs[0].Body) {
		t.Error("post-error session parse differs from fresh parse")
	}
	sess.Reset()
	if _, err := sess.ParseFile(good); err != nil {
		t.Fatalf("session unusable after Reset: %v", err)
	}
}

// TestNestingDepthLimit pins the MaxDepth bound on every shape of nesting:
// one level past the limit is a positioned *Error, never a stack overflow,
// and the same shape 64 levels deep (the deepest AST in examples/c and the
// generated corpora is 14) still parses. Parentheses, blocks, else-if
// chains and unary chains recurse in the parser; binary and subscript
// chains are built in loops, so only the finished tree's depth check
// catches them. The session stays usable after each refusal.
func TestNestingDepthLimit(t *testing.T) {
	sess := NewSession()
	cases := []struct {
		name  string
		stmt  bool // parse as a statement, else as an expression
		build func(levels int) string
	}{
		{"parentheses", false, func(n int) string { return strings.Repeat("(", n) + "x" + strings.Repeat(")", n) }},
		{"blocks", true, func(n int) string { return strings.Repeat("{", n) + strings.Repeat("}", n) }},
		{"else-if chain", true, func(n int) string { return "if (x) ;" + strings.Repeat(" else if (x) ;", n-1) }},
		{"unary chain", false, func(n int) string { return strings.Repeat("!", n) + "x" }},
		{"binary chain", false, func(n int) string { return "x" + strings.Repeat("+x", n-1) }},
		{"subscript chain", false, func(n int) string { return "a" + strings.Repeat("[0]", n-1) }},
	}
	for _, c := range cases {
		parse := func(src string) error {
			if c.stmt {
				_, err := sess.ParseStmt(src)
				return err
			}
			_, err := sess.ParseExpr(src)
			return err
		}
		if err := parse(c.build(64)); err != nil {
			t.Errorf("%s, 64 levels: %v", c.name, err)
		}
		err := parse(c.build(MaxDepth + 1))
		var pe *Error
		if !errors.As(err, &pe) || pe.Msg != tooDeepMsg || pe.Pos.Line == 0 {
			t.Errorf("%s, %d levels: err = %v, want a positioned %q", c.name, MaxDepth+1, err, tooDeepMsg)
		}
	}
	if _, err := sess.ParseFile("int main() { return 0; }"); err != nil {
		t.Errorf("session unusable after depth errors: %v", err)
	}
}
