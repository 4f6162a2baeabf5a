package cinterp

import (
	"errors"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// prepTraced parses src and returns an interpreter instrumenting the
// idx-th for loop of the file (walk order).
func prepTraced(t *testing.T, src string, idx int) *Interp {
	t.Helper()
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var loops []*cast.For
	cast.Walk(f, func(n cast.Node) bool {
		if l, ok := n.(*cast.For); ok {
			loops = append(loops, l)
		}
		return true
	})
	if idx >= len(loops) {
		t.Fatalf("file has %d for loops, want index %d", len(loops), idx)
	}
	in := New(f)
	in.TraceLoop = loops[idx]
	return in
}

const sumSrc = `int main() {
    double a[8];
    double s = 0.0;
    int i;
    for (i = 0; i < 8; i++) { a[i] = i * 0.5; }
    for (i = 0; i < 8; i++) { s = s + a[i]; }
    if (s == 14.0) return 1;
    return 0;
}`

func TestCaptureAtLoopExit(t *testing.T) {
	in := prepTraced(t, sumSrc, 1)
	in.CaptureNames = []string{"s", "a", "i", "missing"}
	v, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v.AsInt() != 1 {
		t.Fatalf("exit value %v, want 1", v)
	}
	s, ok := in.Captured["s"]
	if !ok || s.Scalar == nil || s.Scalar.AsFloat() != 14.0 {
		t.Errorf("captured s = %+v, want scalar 14.0", s)
	}
	a, ok := in.Captured["a"]
	if !ok || len(a.Array) != 8 || a.Array[2].AsFloat() != 1.0 {
		t.Errorf("captured a = %+v, want 8 elements with a[2]=1.0", a)
	}
	i, ok := in.Captured["i"]
	if !ok || i.Scalar == nil || i.Scalar.AsInt() != 8 {
		t.Errorf("captured i = %+v, want exit value 8", i)
	}
	if _, ok := in.Captured["missing"]; ok {
		t.Error("unresolvable name should be absent from Captured")
	}
}

func TestReversedReductionMatchesSerial(t *testing.T) {
	ser := prepTraced(t, sumSrc, 1)
	ser.CaptureNames = []string{"s"}
	if _, err := ser.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	rev := prepTraced(t, sumSrc, 1)
	rev.CaptureNames = []string{"s", "i"}
	rev.ReverseOrder = true
	rev.ReverseIndVar = "i"
	v, err := rev.Run()
	if err != nil {
		t.Fatalf("reversed run: %v", err)
	}
	if v.AsInt() != 1 {
		t.Fatalf("reversed exit value %v, want 1 (s and i must be restored)", v)
	}
	got := rev.Captured["s"].Scalar.AsFloat()
	want := ser.Captured["s"].Scalar.AsFloat()
	if got != want {
		t.Errorf("reversed sum %v != serial sum %v", got, want)
	}
	if iv := rev.Captured["i"].Scalar.AsInt(); iv != 8 {
		t.Errorf("induction variable not restored to exit value: %d", iv)
	}
}

func TestReversedExposesRecurrence(t *testing.T) {
	const src = `int main() {
        int a[6];
        int i;
        for (i = 0; i < 6; i++) { a[i] = 1; }
        for (i = 1; i < 6; i++) { a[i] = a[i-1] + a[i]; }
        return a[5];
    }`
	ser := prepTraced(t, src, 1)
	ser.CaptureNames = []string{"a"}
	if _, err := ser.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	rev := prepTraced(t, src, 1)
	rev.CaptureNames = []string{"a"}
	rev.ReverseOrder = true
	rev.ReverseIndVar = "i"
	if _, err := rev.Run(); err != nil {
		t.Fatalf("reversed run: %v", err)
	}
	serA, revA := ser.Captured["a"].Array, rev.Captured["a"].Array
	if serA[5].AsInt() == revA[5].AsInt() {
		t.Errorf("a recurrence must diverge under reversed order: serial %d, reversed %d",
			serA[5].AsInt(), revA[5].AsInt())
	}
	// Serial prefix sum of six ones is 6; reversed only adds each left
	// neighbor's ORIGINAL value, so every element lands at 2.
	if serA[5].AsInt() != 6 || revA[5].AsInt() != 2 {
		t.Errorf("serial a[5]=%d (want 6), reversed a[5]=%d (want 2)",
			serA[5].AsInt(), revA[5].AsInt())
	}
}

func TestReversedBreakUnsupported(t *testing.T) {
	const src = `int main() {
        int i;
        int n = 0;
        for (i = 0; i < 8; i++) { if (i == 3) break; n = n + 1; }
        return n;
    }`
	rev := prepTraced(t, src, 0)
	rev.ReverseOrder = true
	rev.ReverseIndVar = "i"
	_, err := rev.Run()
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("want ErrUnsupported for break under reversed order, got %v", err)
	}
}

func TestCaptureSurvivesBreak(t *testing.T) {
	const src = `int main() {
        int i;
        int n = 0;
        for (i = 0; i < 8; i++) { if (i == 3) break; n = n + 1; }
        return n;
    }`
	in := prepTraced(t, src, 0)
	in.CaptureNames = []string{"n"}
	if _, err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := in.Captured["n"].Scalar.AsInt(); got != 3 {
		t.Errorf("captured n = %d, want 3", got)
	}
}
