package cinterp

import (
	"errors"
	"fmt"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

func run(t *testing.T, src string) (Value, error) {
	t.Helper()
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(f).Run()
}

func mustRun(t *testing.T, src string) Value {
	t.Helper()
	v, err := run(t, src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	v := mustRun(t, `int main() { return 2 + 3 * 4 - 6 / 2; }`)
	if v.AsInt() != 11 {
		t.Errorf("got %v, want 11", v)
	}
}

func TestIntVsFloatDivision(t *testing.T) {
	v := mustRun(t, `int main() { int a = 7 / 2; return a; }`)
	if v.AsInt() != 3 {
		t.Errorf("int division: %v", v)
	}
	v2 := mustRun(t, `int main() { double x = 7.0 / 2.0; if (x == 3.5) return 1; return 0; }`)
	if v2.AsInt() != 1 {
		t.Errorf("float division: %v", v2)
	}
}

func TestLoopSum(t *testing.T) {
	v := mustRun(t, `int main() {
        int sum = 0;
        for (int i = 1; i <= 100; i++) sum += i;
        return sum;
    }`)
	if v.AsInt() != 5050 {
		t.Errorf("sum = %v, want 5050", v)
	}
}

func TestArrays(t *testing.T) {
	v := mustRun(t, `int main() {
        int a[10];
        for (int i = 0; i < 10; i++) a[i] = i * i;
        int s = 0;
        for (int i = 0; i < 10; i++) s += a[i];
        return s;
    }`)
	if v.AsInt() != 285 {
		t.Errorf("s = %v, want 285", v)
	}
}

func Test2DArray(t *testing.T) {
	v := mustRun(t, `int main() {
        int m[3][4];
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 4; j++)
                m[i][j] = i * 4 + j;
        return m[2][3];
    }`)
	if v.AsInt() != 11 {
		t.Errorf("m[2][3] = %v, want 11", v)
	}
}

func TestArrayInitList(t *testing.T) {
	v := mustRun(t, `int main() { int a[4] = {1, 2, 3, 4}; return a[0] + a[3]; }`)
	if v.AsInt() != 5 {
		t.Errorf("got %v, want 5", v)
	}
}

func TestWhileAndBreakContinue(t *testing.T) {
	v := mustRun(t, `int main() {
        int k = 0, odd = 0;
        while (1) {
            k++;
            if (k > 10) break;
            if (k % 2 == 0) continue;
            odd += k;
        }
        return odd;
    }`)
	if v.AsInt() != 25 { // 1+3+5+7+9
		t.Errorf("odd = %v, want 25", v)
	}
}

func TestDoWhile(t *testing.T) {
	v := mustRun(t, `int main() { int x = 0; do { x++; } while (x < 5); return x; }`)
	if v.AsInt() != 5 {
		t.Errorf("x = %v", v)
	}
}

func TestFunctionCallByValue(t *testing.T) {
	v := mustRun(t, `
int twice(int x) { x = x * 2; return x; }
int main() { int a = 21; int b = twice(a); return b + (a == 21); }`)
	if v.AsInt() != 43 {
		t.Errorf("got %v, want 43", v)
	}
}

func TestArrayPassedByReference(t *testing.T) {
	v := mustRun(t, `
void fill(int a[], int n) { for (int i = 0; i < n; i++) a[i] = 7; }
int main() { int a[5]; fill(a, 5); return a[4]; }`)
	if v.AsInt() != 7 {
		t.Errorf("got %v, want 7", v)
	}
}

func TestRecursion(t *testing.T) {
	v := mustRun(t, `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(12); }`)
	if v.AsInt() != 144 {
		t.Errorf("fib(12) = %v, want 144", v)
	}
}

// TestCallDepthLimit pins the C call-stack bound: recursion exactly
// maxCallDepth frames deep runs, one frame more is unsupported, and so is
// recursion with no base case, which without the bound overflows the
// goroutine stack and ends the process.
func TestCallDepthLimit(t *testing.T) {
	// main plus down(n), …, down(0) is n+2 frames.
	const src = `int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
int main() { return down(%d); }`
	if v := mustRun(t, fmt.Sprintf(src, maxCallDepth-2)); v.AsInt() != maxCallDepth-2 {
		t.Errorf("down(%d) = %v", maxCallDepth-2, v)
	}
	for _, prog := range []string{
		fmt.Sprintf(src, maxCallDepth-1),
		`int f(int n) { return f(n + 1); } int main() { return f(0); }`,
	} {
		_, err := run(t, prog)
		var ue *ErrUnsupported
		if !errors.As(err, &ue) {
			t.Errorf("err = %v, want ErrUnsupported for %q", err, prog)
		}
	}
}

func TestMathFunctions(t *testing.T) {
	v := mustRun(t, `int main() {
        double x = fabs(-3.0) + sqrt(16.0) + pow(2.0, 3.0) + fmax(1.0, 2.0);
        return (int)x;
    }`)
	if v.AsInt() != 17 {
		t.Errorf("got %v, want 17", v)
	}
}

func TestListing3SquareLoop(t *testing.T) {
	// Listing 3 from the paper: loop with a user function call.
	v := mustRun(t, `
float square(int x) {
    int k = 0;
    while (k < 50) k++;
    return sqrt(x);
}
int main() {
    float vector[16];
    for (int i = 0; i < 16; i++) vector[i] = i * i;
    for (int i = 0; i < 16; i++) {
        vector[i] = square(vector[i]);
    }
    return (int)vector[9];
}`)
	if v.AsInt() != 9 {
		t.Errorf("got %v, want 9", v)
	}
}

func TestSwitch(t *testing.T) {
	v := mustRun(t, `int main() {
        int r = 0;
        for (int i = 0; i < 5; i++) {
            switch (i % 3) {
            case 0: r += 1; break;
            case 1: r += 10; break;
            default: r += 100;
            }
        }
        return r;
    }`)
	// i: 0,1,2,3,4 → 1+10+100+1+10 = 122
	if v.AsInt() != 122 {
		t.Errorf("r = %v, want 122", v)
	}
}

func TestStepBudget(t *testing.T) {
	f, err := cparse.ParseFile(`int main() { int x = 0; while (1) x++; return x; }`)
	if err != nil {
		t.Fatal(err)
	}
	in := New(f)
	in.MaxSteps = 10000
	_, err = in.Run()
	if !errors.Is(err, ErrStepBudget) {
		t.Errorf("err = %v, want ErrStepBudget", err)
	}
}

func TestUnknownFunctionUnsupported(t *testing.T) {
	_, err := run(t, `int main() { return mystery(3); }`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestUndeclaredVariableUnsupported(t *testing.T) {
	_, err := run(t, `int main() { return ghost + 1; }`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestNoMain(t *testing.T) {
	_, err := run(t, `int helper() { return 1; }`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	_, err := run(t, `int main() { int z = 0; return 5 / z; }`)
	if err == nil {
		t.Error("want division-by-zero error")
	}
}

func TestOutOfBounds(t *testing.T) {
	_, err := run(t, `int main() { int a[3]; return a[5]; }`)
	if err == nil {
		t.Error("want bounds error")
	}
}

func TestGlobals(t *testing.T) {
	v := mustRun(t, `
int counter = 10;
void bump() { counter = counter + 5; }
int main() { bump(); bump(); return counter; }`)
	if v.AsInt() != 20 {
		t.Errorf("counter = %v, want 20", v)
	}
}

func TestTernaryAndLogicalShortCircuit(t *testing.T) {
	v := mustRun(t, `int main() {
        int a = 5;
        int b = (a > 3) ? 100 : 200;
        int c = (a < 3) && (1 / 0);
        return b + c;
    }`)
	// 1/0 must not be evaluated thanks to short-circuit
	if v.AsInt() != 100 {
		t.Errorf("got %v, want 100", v)
	}
}

func findLoop(t *testing.T, file *cast.File, idx int) *cast.For {
	t.Helper()
	var loops []*cast.For
	for _, fn := range file.Funcs {
		cast.Walk(fn.Body, func(n cast.Node) bool {
			if l, ok := n.(*cast.For); ok {
				loops = append(loops, l)
			}
			return true
		})
	}
	if idx >= len(loops) {
		t.Fatalf("loop %d not found (%d loops)", idx, len(loops))
	}
	return loops[idx]
}

func TestTracingIterationsAndAddresses(t *testing.T) {
	src := `int main() {
        int a[8];
        int s = 0;
        for (int i = 0; i < 12; i++) a[i % 8] = i;
        for (int i = 0; i < 8; i++) s += a[i];
        return s;
    }`
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(f)
	in.TraceLoop = findLoop(t, f, 1) // the summing loop
	in.Watch = []Watch{{Name: "i", Role: Exempt}, {Name: "s", Role: Reduction}}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	p := in.Profile
	if p.MaxIter != 7 {
		t.Errorf("MaxIter = %d, want 7", p.MaxIter)
	}
	if p.ArrayWritten {
		t.Error("the summing loop only reads a, yet an array write was profiled")
	}
	// Only s is left: i is exempt, every a[k] is read in one iteration,
	// and the fill loop (which writes a[0..3] twice) is not profiled.
	if len(p.Cells) != 1 {
		t.Fatalf("cells = %+v, want s alone", p.Cells)
	}
	c := p.Cells[0]
	if c.Name != "s" || c.Addr.Elem != ScalarElem || !c.Reduction || !c.Shared || !c.OncePerIter || c.RepeatedWrite {
		t.Errorf("s = %+v, want a shared reduction cell written once per iteration", c)
	}

	// Without the watch list the induction variable is profiled like any
	// other scalar: written and read in every iteration.
	in = New(f)
	in.TraceLoop = findLoop(t, f, 1)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(in.Profile.Cells); got != 2 {
		t.Errorf("unwatched cells = %+v, want i and s", in.Profile.Cells)
	}
	for _, c := range in.Profile.Cells {
		if c.Name != "" || c.Reduction || !c.Shared {
			t.Errorf("unwatched cell %+v, want a shared, unnamed cell", c)
		}
	}
}

// TestProfileReductionRules pins the two write-count rules on a reduction
// cell that a nest's inner loop updates once per inner iteration: summed
// over every entry of the loop, each iteration index wrote it 8 times
// (not OncePerIter), yet no iteration ever wrote it twice in a row (no
// RepeatedWrite). A body that bumps the cell twice breaks both.
func TestProfileReductionRules(t *testing.T) {
	for _, tc := range []struct {
		body           string
		once, repeated bool
	}{
		{"s += a[i][j];", false, false},
		{"s += a[i][j]; s += 1;", false, true},
	} {
		src := `int main() {
    int a[8][8];
    int s = 0;
    int i, j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            a[i][j] = i + j;
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) {
            ` + tc.body + `
        }
    }
    return s;
}`
		f, err := cparse.ParseFile(src)
		if err != nil {
			t.Fatal(err)
		}
		in := New(f)
		in.TraceLoop = findLoop(t, f, 3)
		in.Watch = []Watch{{Name: "j", Role: Exempt}, {Name: "s", Role: Reduction}}
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		var s *Cell
		for k := range in.Profile.Cells {
			if in.Profile.Cells[k].Name == "s" {
				s = &in.Profile.Cells[k]
			}
		}
		if s == nil {
			t.Fatalf("%s: no cell for s in %+v", tc.body, in.Profile.Cells)
		}
		if s.OncePerIter != tc.once || s.RepeatedWrite != tc.repeated {
			t.Errorf("%s: OncePerIter=%v RepeatedWrite=%v, want %v %v",
				tc.body, s.OncePerIter, s.RepeatedWrite, tc.once, tc.repeated)
		}
	}
}

func TestCharLiteralValue(t *testing.T) {
	v := mustRun(t, `int main() { return 'A'; }`)
	if v.AsInt() != 65 {
		t.Errorf("'A' = %v", v)
	}
}

func TestCastTruncation(t *testing.T) {
	v := mustRun(t, `int main() { double x = 3.9; return (int)x; }`)
	if v.AsInt() != 3 {
		t.Errorf("(int)3.9 = %v", v)
	}
}
