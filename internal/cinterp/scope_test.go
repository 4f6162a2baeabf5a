package cinterp

import (
	"testing"

	"graph2par/internal/cparse"
)

// scopeCase is one program with main's exact value, or the exact error
// Run returns.
type scopeCase struct {
	name string
	src  string
	want Value
	err  string
}

// scopeCases pin how names resolve: which declaration a use reads, when
// a name stops being visible, and the errors for names that are not
// declared or are used as the wrong kind.
var scopeCases = []scopeCase{
	{
		name: "shadowing keeps the outer value",
		src:  `int main() { int x = 1; int s = 0; { int x = 2; s = x; x = 3; } return s * 10 + x; }`,
		want: IntVal(21),
	},
	{
		name: "use before a declaration in the same block reads the outer name",
		src:  `int main() { int x = 1; int s = 0; { s = x; int x = 5; s = s * 10 + x; } return s; }`,
		want: IntVal(15),
	},
	{
		name: "a name binds after its initializer",
		src:  `int main() { int x = 3; { int x = x + 1; return x; } }`,
		want: IntVal(4),
	},
	{
		name: "a later declarator sees an earlier one",
		src:  `int main() { int a = 7; { int a = 1, b = a; return b; } }`,
		want: IntVal(1),
	},
	{
		name: "a for declaration is undeclared after the loop",
		src:  `int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return i; }`,
		err:  "cinterp: unsupported: undeclared variable i",
	},
	{
		name: "a for declaration shadows until the loop ends",
		src:  `int main() { int i = 9, s = 0; for (int i = 0; i < 3; i++) s += i; return i + s; }`,
		want: IntVal(12),
	},
	{
		name: "recursion",
		src: `int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int main() { return fact(5); }`,
		want: IntVal(120),
	},
	{
		name: "each call has its own locals",
		src: `int f(int n) { int local = n * 2; if (n > 0) f(n - 1); return local; }
int main() { return f(3); }`,
		want: IntVal(6),
	},
	{
		name: "a parameter shadows a global",
		src: `int x = 100;
int g(int x) { x = x + 1; return x; }
int main() { return g(5) + x; }`,
		want: IntVal(106),
	},
	{
		name: "a local shadows a parameter",
		src: `int g(int x) { int x = x * 10; return x; }
int main() { return g(4); }`,
		want: IntVal(40),
	},
	{
		name: "a function reads a global declared after it",
		src: `int g() { return z * 2; }
int z = 21;
int main() { return g(); }`,
		want: IntVal(42),
	},
	{
		name: "a global initializer cannot read a later global",
		src: `int g() { return z; }
int y = g();
int z = 3;
int main() { return y; }`,
		err: "cinterp: unsupported: undeclared variable z",
	},
	{
		name: "a case that skips a declaration reads the outer name",
		src: `int main() {
    int x = 100;
    int s = 0;
    int k;
    for (k = 0; k < 2; k++) {
        switch (k) {
        case 0: int x = 5; s += x; break;
        case 1: x = 7; s += x; break;
        }
    }
    return s + x;
}`,
		want: IntVal(19),
	},
	{
		name: "a case that skips a declaration with no outer name",
		src: `int main() {
    int s = 0;
    int k;
    for (k = 0; k < 2; k++) {
        switch (k) {
        case 0: int x = 5; s += x; break;
        case 1: x = 7; s += x; break;
        }
    }
    return s;
}`,
		err: "cinterp: unsupported: undeclared variable x",
	},
	{
		name: "struct variables and struct arrays",
		src: `struct pt { int x; int y; };
int main() {
    struct pt p;
    struct pt q[3];
    int i;
    p.x = 2;
    p.y = 3;
    for (i = 0; i < 3; i++) { q[i].x = i; q[i].y = p.x * i; }
    { struct pt p; p.x = 50; q[0].x = p.x; }
    return p.x + p.y + q[2].x + q[2].y + q[0].x;
}`,
		want: IntVal(61),
	},
	{
		name: "array arguments are passed by reference",
		src: `int sum(int a[], int n) { int s = 0; int i; for (i = 0; i < n; i++) s += a[i]; return s; }
void fill(int m[][3], int v) { int i, j; for (i = 0; i < 2; i++) for (j = 0; j < 3; j++) m[i][j] = v + j; }
int main() {
    int v[4] = {1, 2, 3, 4};
    int m[2][3];
    fill(m, 10);
    return sum(v, 4) + m[1][2];
}`,
		want: IntVal(22),
	},
	{
		name: "a redeclaration reads the earlier one",
		src:  `int main() { int x = 1; int x = x + 1; return x; }`,
		want: IntVal(2),
	},
	{
		name: "a declaration as a branch binds in the enclosing block",
		src: `int main() {
    int x = 100;
    int s = 0;
    int k = 3;
    while (k--) if (k == 1) s += x; else int x = k + 5;
    return s * 1000 + x;
}`,
		want: IntVal(7005),
	},
	{
		name: "an array used as a scalar",
		src:  `int main() { int a[3]; return a + 1; }`,
		err:  "array a used as scalar",
	},
	{
		name: "a subscript on a non-array",
		src:  `int main() { int x = 1; return x[0]; }`,
		err:  "cinterp: unsupported: subscript on non-array x",
	},
	{
		name: "an undeclared array",
		src:  `int main() { return ghost[0]; }`,
		err:  "cinterp: unsupported: undeclared array ghost",
	},
	// The values gcc 12.2 gives: arguments and results take their
	// declared types, and character escapes decode as C's.
	{
		name: "an argument takes its parameter's type",
		src: `int g(int x) { return x * 3 + 2; }
int main() { double a = 2.5; return g(a); }`,
		want: IntVal(8),
	},
	{
		name: "a result takes its function's type",
		src: `double h(int a) { return a; }
int main() { double y = h(3) / 2; return y * 10; }`,
		want: IntVal(15),
	},
	{
		name: "main returns an int",
		src:  `int main() { double x = 2.5; return x; }`,
		want: IntVal(2),
	},
	{name: "newline escape", src: `int main() { return '\n'; }`, want: IntVal(10)},
	{name: "octal escape", src: `int main() { return '\0'; }`, want: IntVal(0)},
	{name: "quote escape", src: `int main() { return '\''; }`, want: IntVal(39)},
	{name: "hex escape", src: `int main() { return '\x41'; }`, want: IntVal(65)},
}

func TestScopes(t *testing.T) {
	for _, tc := range scopeCases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := run(t, tc.src)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Run = %v, %v; want error %q", v, err, tc.err)
				}
				return
			}
			if err != nil || v != tc.want {
				t.Fatalf("Run = %+v, %v; want %+v", v, err, tc.want)
			}
		})
	}
}

// TestBlockLocalsAreFreshInProfile pins that a block-scoped declaration
// is a new object each time its block or loop is entered, so the traced
// loop's profile never sees one cell shared across iterations: a scalar
// declared in the traced body, and a re-entered for (int j ...) nested in
// it.
func TestBlockLocalsAreFreshInProfile(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     string
		loop    int
		watch   []Watch
		maxIter int
	}{
		{
			name: "body scalar",
			src: `int main() {
    int a[4];
    int i;
    for (i = 0; i < 4; i++) { int t = i * 2; a[i] = t; }
    return a[3];
}`,
			loop:    0,
			watch:   []Watch{{Name: "i", Role: Exempt}},
			maxIter: 3,
		},
		{
			name: "re-entered for declaration",
			src: `int main() {
    int a[3][4];
    int i;
    for (i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) a[i][j] = i + j;
    }
    return a[2][3];
}`,
			loop:    0,
			watch:   []Watch{{Name: "i", Role: Exempt}},
			maxIter: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := cparse.ParseFile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			in := New(f)
			in.TraceLoop = findLoop(t, f, tc.loop)
			in.Watch = tc.watch
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
			if in.Profile.MaxIter != tc.maxIter {
				t.Errorf("MaxIter = %d, want %d", in.Profile.MaxIter, tc.maxIter)
			}
			if len(in.Profile.Cells) != 0 {
				t.Errorf("cells = %+v, want none: each iteration declares fresh objects", in.Profile.Cells)
			}
		})
	}
}
