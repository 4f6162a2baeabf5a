package cinterp

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func sameValues(t *testing.T, what string, got, want []Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestChunkedArrayMatchesFlat drives chunked arrays and a flat []Value
// reference through the same seeded sequence of sets, gets, snapshots and
// densifications. Every snapshot is kept and re-checked to the end, so a
// write that reached a chunk some snapshot shares fails the test.
func TestChunkedArrayMatchesFlat(t *testing.T) {
	shapes := [][]int64{
		{1},
		{chunkCells - 1},
		{chunkCells},
		{chunkCells + 1},
		{3, 100},            // 300 cells: a full chunk and a partial one
		{2, chunkCells / 2}, // exactly one chunk
		{5, 7, 19},          // 665 cells over three chunks
	}
	for si, dims := range shapes {
		for fi, isFloat := range []bool{false, true} {
			seed := int64(2*si + fi + 1)
			t.Run(fmt.Sprintf("%v/float=%v", dims, isFloat), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				in := &Interp{cellsLeft: maxRunCells}
				arr, err := in.newArray(dims, isFloat)
				if err != nil {
					t.Fatal(err)
				}
				// ref is the flat reference the chunked array must match.
				ref := make([]Value, arr.size)
				for i := range ref {
					ref[i] = arr.zero()
				}
				type snap struct {
					arr  *array
					want []Value
				}
				var snaps []snap
				randIndex := func() (int64, []int64) {
					idx := make([]int64, len(dims))
					for d, n := range dims {
						idx[d] = rng.Int63n(n)
					}
					flat, err := arr.flatten(idx)
					if err != nil {
						t.Fatal(err)
					}
					return flat, idx
				}
				for op := 0; op < 4000; op++ {
					switch r := rng.Intn(100); {
					case r < 55:
						flat, _ := randIndex()
						// Storage keeps whatever kind it is given (an
						// initializer may put a float in an int array).
						v := IntVal(rng.Int63n(1000) - 500)
						if rng.Intn(2) == 0 {
							v = FloatVal(rng.NormFloat64())
						}
						if err := arr.set(flat, v); err != nil {
							t.Fatal(err)
						}
						ref[flat] = v
					case r < 90:
						flat, idx := randIndex()
						if got, want := arr.get(flat), ref[flat]; got != want {
							t.Fatalf("op %d: get%v = %+v, want %+v", op, idx, got, want)
						}
					case r < 97:
						snaps = append(snaps, snap{arr.snapshot(), append([]Value(nil), ref...)})
					default:
						sameValues(t, fmt.Sprintf("op %d: dense", op), arr.dense(), ref)
					}
				}
				sameValues(t, "final dense", arr.dense(), ref)
				for k, s := range snaps {
					sameValues(t, fmt.Sprintf("snapshot %d", k), s.arr.dense(), s.want)
				}
			})
		}
	}
}

// TestCaptureIsLastExitOfReenteredLoop traces an inner loop that the
// outer loop enters 100 times, then overwrites the array after the nest:
// both probes must capture the state at the traced loop's last exit, not
// the state at the end of the run.
func TestCaptureIsLastExitOfReenteredLoop(t *testing.T) {
	const src = `int main() {
    int d[100][3];
    int s = 0;
    int i, j;
    for (i = 0; i < 100; i++) {
        for (j = 0; j < 3; j++) {
            d[i][j] = i * 3 + j + 1;
        }
        s = s + 1;
    }
    for (i = 0; i < 100; i++) {
        d[i][0] = -1;
    }
    return 0;
}`
	want := make([]Value, 300)
	for k := range want {
		want[k] = IntVal(int64(k + 1))
	}
	for _, reversed := range []bool{false, true} {
		in := prepTraced(t, src, 1)
		in.CaptureNames = []string{"d", "s"}
		in.ReverseOrder = reversed
		in.ReverseIndVar = "j"
		if _, err := in.Run(); err != nil {
			t.Fatalf("reversed=%v: %v", reversed, err)
		}
		sameValues(t, fmt.Sprintf("reversed=%v: captured d", reversed), in.Captured["d"].Array, want)
		if s := in.Captured["s"].Scalar; s == nil || s.AsInt() != 99 {
			t.Errorf("reversed=%v: captured s = %v, want 99 (its value at the last exit)", reversed, s)
		}
	}
}

// TestUntouchedCellsCaptureTypedZero checks that cells never written read
// back with their declared type: FloatVal(0) for a double array, both in
// a chunk that other writes created and in one never created, and
// IntVal(0) for an int array.
func TestUntouchedCellsCaptureTypedZero(t *testing.T) {
	const src = `int main() {
    double a[300];
    int b[300];
    int i;
    for (i = 0; i < 10; i++) { a[i] = i * 0.5; b[i] = i; }
    return 0;
}`
	in := prepTraced(t, src, 0)
	in.CaptureNames = []string{"a", "b"}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := in.Captured["a"].Array, in.Captured["b"].Array
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("captured %d and %d cells, want 300 each", len(a), len(b))
	}
	for i := 10; i < 300; i++ {
		if a[i] != FloatVal(0) || !a[i].IsFloat {
			t.Fatalf("a[%d] = %+v, want FloatVal(0)", i, a[i])
		}
		if b[i] != IntVal(0) {
			t.Fatalf("b[%d] = %+v, want IntVal(0)", i, b[i])
		}
	}
	if a[9] != FloatVal(4.5) || b[9] != IntVal(9) {
		t.Errorf("a[9], b[9] = %+v, %+v, want 4.5 and 9", a[9], b[9])
	}
}

// hugeArrays declares five arrays of the largest size one array may have
// and writes one cell per chunk of each: 20M cells in fresh chunks, five
// times the run's budget.
const hugeArrays = `int a[4000000];
int b[4000000];
int c[4000000];
int d[4000000];
int e[4000000];
int main() {
    int i;
    for (i = 0; i < 4000000; i += 256) {
        a[i] = 1; b[i] = 1; c[i] = 1; d[i] = 1; e[i] = 1;
    }
    return 0;
}`

func TestRunCellBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := run(t, hugeArrays)
	runtime.ReadMemStats(&after)
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) || !strings.Contains(unsup.What, "array cells over") {
		t.Fatalf("err = %v, want ErrUnsupported for the cell budget", err)
	}
	// The budget's 4M cells are 96 MB; everything else is small.
	mb := (after.TotalAlloc - before.TotalAlloc) >> 20
	t.Logf("the refused run allocated %d MB", mb)
	if mb > 128 {
		t.Errorf("the refused run allocated %d MB, want at most 128", mb)
	}

	// The same declarations are fine when few chunks are written, and one
	// array may still be written end to end.
	small := strings.Replace(hugeArrays, "i += 256", "i += 400000", 1)
	if v, err := run(t, small); err != nil || v.AsInt() != 0 {
		t.Errorf("sparse writes: %v, %v", v, err)
	}
	in := &Interp{cellsLeft: maxRunCells}
	arr, err := in.newArray([]int64{maxArrayCells}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < maxArrayCells; i += chunkCells {
		if err := arr.set(i, IntVal(1)); err != nil {
			t.Fatalf("cell %d of one maximal array: %v", i, err)
		}
	}

	// A block-local array is charged once per live copy: its cells go
	// back to the budget when its block ends, so 20,000 declarations of
	// 256 cells fit the 4M-cell budget.
	const redeclared = `int main() {
    int i, s = 0;
    for (i = 0; i < 20000; i++) { int t[256]; t[0] = 1; s = s + t[0]; }
    return s;
}`
	if v, err := run(t, redeclared); err != nil || v.AsInt() != 20000 {
		t.Errorf("block-local array declared 20000 times: %v, %v, want 20000", v, err)
	}
	// A snapshot shares the array's chunks, so ending its block returns
	// nothing.
	in = &Interp{cellsLeft: maxRunCells}
	for _, snap := range []bool{false, true} {
		a, err := in.newArray([]int64{chunkCells}, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.set(0, IntVal(1)); err != nil {
			t.Fatal(err)
		}
		if snap {
			a.snapshot()
		}
		in.declared = append(in.declared, a)
	}
	in.release(0)
	if want := int64(maxRunCells - chunkCells); in.cellsLeft != want {
		t.Errorf("after release: %d cells left, want %d (only the snapshotted array charged)", in.cellsLeft, want)
	}
}

// TestProfileBound checks that the loop profile holds at most
// maxProfileChunks chunks. A traced loop that only reads five maximal
// arrays, one cell per chunk, creates no array cells but would profile
// 78,125 chunks (320 MB); it must fail as unsupported at the bound,
// while the same loop writing them fails on the cell budget. A
// block-local array the traced body declares afresh each iteration hands
// its profile chunk back when its block ends, so 20,000 iterations fit.
func TestProfileBound(t *testing.T) {
	strided := strings.Replace(hugeArrays, "a[i] = 1; b[i] = 1; c[i] = 1; d[i] = 1; e[i] = 1;",
		"s = s + a[i] + b[i] + c[i] + d[i] + e[i];", 1)
	strided = strings.Replace(strided, "int i;", "int i, s = 0;", 1)
	in := prepTraced(t, strided, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := in.Run()
	runtime.ReadMemStats(&after)
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) || !strings.Contains(unsup.What, "profiled cells over") {
		t.Fatalf("strided reads: err = %v, want ErrUnsupported for the profile bound", err)
	}
	// The bound's 15,625 chunks are 64 MB.
	mb := (after.TotalAlloc - before.TotalAlloc) >> 20
	t.Logf("the refused run allocated %d MB", mb)
	if mb > 96 {
		t.Errorf("the refused run allocated %d MB, want at most 96", mb)
	}
	// Writes reach the cell budget and the bound at the same chunk; they
	// fail on the cell budget, as they do untraced.
	_, err = prepTraced(t, hugeArrays, 0).Run()
	if !errors.As(err, &unsup) || !strings.Contains(unsup.What, "array cells over") {
		t.Errorf("traced writes: err = %v, want ErrUnsupported for the cell budget", err)
	}

	const redeclared = `int main() {
    int i, s = 0;
    for (i = 0; i < 20000; i++) { int t[4]; t[0] = i; s = s + t[0]; }
    return s;
}`
	in = prepTraced(t, redeclared, 0)
	in.Watch = []Watch{{Name: "i", Role: Exempt}}
	runtime.ReadMemStats(&before)
	v, err := in.Run()
	runtime.ReadMemStats(&after)
	if want := int64(20000 * 19999 / 2); err != nil || v.AsInt() != want {
		t.Fatalf("block-local array declared 20000 times: %v, %v, want %d", v, err, want)
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 32 {
		t.Errorf("block-local array declared 20000 times: run allocated %d MB, want at most 32", mb)
	}
	if c := in.Profile.Cells; len(c) != 1 || c[0].Addr.Elem != ScalarElem || !c[0].Shared {
		t.Errorf("profile cells = %+v, want only s, shared", c)
	}
}

// nestSrc is the rewrite pool's slowest file with the harness's main: the
// traced inner loop exits 4,015 times, each time with d captured.
const nestSrc = `int src[4020];
int grid[4020];
int tmp = 0;
int gain = 0;
int m = 0;
int d[4020][11];

void work() {
    for (tmp = 1; tmp < 4016; tmp++) {
        gain = grid[tmp];
        src[tmp] = gain + 1;
        for (m = 0; m < 11; m++) {
            d[tmp][m] = gain + m;
        }
    }
}

int main() {
    work();
    return 0;
}`

// TestCaptureAllocationBound guards the cost of capturing at every exit:
// copying d (44,220 cells, 1 MB) per exit allocated about 4.3 GB per run;
// a snapshot of chunk pointers plus one chunk copy per exit stays under
// 64 MB.
func TestCaptureAllocationBound(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		in := prepTraced(t, nestSrc, 1)
		in.CaptureNames = []string{"d"}
		in.ReverseOrder = reversed
		in.ReverseIndVar = "m"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := in.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("reversed=%v: %v", reversed, err)
		}
		mb := (after.TotalAlloc - before.TotalAlloc) >> 20
		t.Logf("reversed=%v: run allocated %d MB", reversed, mb)
		if mb >= 64 {
			t.Errorf("reversed=%v: run allocated %d MB, want under 64", reversed, mb)
		}
		d := in.Captured["d"].Array
		if len(d) != 4020*11 || d[4015*11+10] != IntVal(10) || d[4016*11] != IntVal(0) {
			t.Errorf("reversed=%v: captured d has %d cells, d[4015][10] = %+v, d[4016][0] = %+v",
				reversed, len(d), d[4015*11+10], d[4016*11])
		}
	}
}
