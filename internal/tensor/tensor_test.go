package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(c, want, 1e-12) {
		t.Errorf("got %v", c.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, using MatMulATInto/MatMulBTInto as the
// transposed primitives the backward passes rely on.
func TestQuickTransposedMatMulIdentities(t *testing.T) {
	rng := NewRNG(99)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := New(n, k).Gaussian(rng, 1)
		b := New(k, m).Gaussian(rng, 1)
		ab := MatMul(a, b)

		// out = aᵀ·ab should equal MatMulATInto accumulation
		at := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		direct := MatMul(at, ab)
		accum := New(k, ab.Cols)
		MatMulATInto(accum, a, ab)
		if !Equal(direct, accum, 1e-9) {
			return false
		}

		// out = ab·bᵀ should equal MatMulBTInto accumulation
		bt := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		direct2 := MatMul(ab, bt)
		accum2 := New(ab.Rows, k)
		MatMulBTInto(accum2, ab, b)
		return Equal(direct2, accum2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// naiveMatMul / naiveMatMulAT / naiveMatMulBT are straight-line reference
// kernels: ascending-p accumulation per element, the order the tiled
// production kernels promise to preserve bit for bit.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				av := a.At(i, p)
				if av == 0 {
					continue
				}
				s += av * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulAT(out, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			v := out.At(i, j)
			for p := 0; p < a.Rows; p++ {
				av := a.At(p, i)
				if av == 0 {
					continue
				}
				v += av * b.At(p, j)
			}
			out.Set(i, j, v)
		}
	}
}

func naiveMatMulBT(out, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			out.Set(i, j, out.At(i, j)+s)
		}
	}
}

// bitEqual demands exact float64 equality — the invariant the training and
// inference bit-identity guarantees are built on, stricter than Equal's eps.
func bitEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// TestMatMulKernelsBitIdenticalToReference pins the tiled kernels to the
// naive reference, bit for bit, across shapes small, ragged and large
// enough to cross every block boundary.
func TestMatMulKernelsBitIdenticalToReference(t *testing.T) {
	rng := NewRNG(2718)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {9, 17, 33},
		{matMulRowBlock + 3, 31, 29},
		{192, 96, 160},
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := New(n, k).Gaussian(rng, 1)
		b := New(k, m).Gaussian(rng, 1)
		a.Data[rng.Intn(len(a.Data))] = 0 // exercise the zero-skip
		got := MatMul(a, b)
		if !bitEqual(got, naiveMatMul(a, b)) {
			t.Errorf("MatMul %dx%dx%d differs from reference", n, k, m)
		}

		// Accumulating variants start from a nonzero out to catch any
		// zeroing the += kernels must not do.
		seedOut := New(k, m).Gaussian(rng, 1)
		x := New(n, m).Gaussian(rng, 1)
		gotAT, wantAT := seedOut.Clone(), seedOut.Clone()
		MatMulATInto(gotAT, a, x)
		naiveMatMulAT(wantAT, a, x)
		if !bitEqual(gotAT, wantAT) {
			t.Errorf("MatMulATInto %dx%dx%d differs from reference", n, k, m)
		}

		bt := New(5, k).Gaussian(rng, 1) // shares a's inner dim, 5 output cols
		gotBT := New(n, 5).Gaussian(rng, 1)
		wantBT := gotBT.Clone()
		MatMulBTInto(gotBT, a, bt)
		naiveMatMulBT(wantBT, a, bt)
		if !bitEqual(gotBT, wantBT) {
			t.Errorf("MatMulBTInto %dx%dx%d differs from reference", n, k, m)
		}
	}
}

func TestSoftmaxRowsProperties(t *testing.T) {
	rng := NewRNG(7)
	m := New(10, 6).Gaussian(rng, 3)
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 3, []float64{1000, 1001, 1002})
	SoftmaxRows(m)
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", m.Data)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(123)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v", variance)
	}
}

func TestXavierBounds(t *testing.T) {
	r := NewRNG(5)
	m := New(30, 40).Xavier(r)
	limit := math.Sqrt(6.0 / 70.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v beyond limit %v", v, limit)
		}
	}
	if m.MaxAbs() < limit/3 {
		t.Error("xavier looks degenerate")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestIntnRangeAndDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for _, n := range []int{1, 2, 3, 5, 7, 8, 100, 1 << 20, (1 << 20) + 3} {
		for i := 0; i < 200; i++ {
			v := a.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			if w := b.Intn(n); w != v {
				t.Fatalf("Intn(%d) not deterministic: %d vs %d", n, v, w)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

// TestIntnUniformity is the modulo-bias regression: with rejection
// sampling, every residue class of a non-power-of-two n is hit with equal
// probability. 60k draws over n=6 keep each bucket within a few sigma of
// the expected count.
func TestIntnUniformity(t *testing.T) {
	r := NewRNG(2024)
	const n, draws = 6, 60000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	// ~5 sigma for a binomial bucket: 5*sqrt(draws*(1/n)*(1-1/n)) ≈ 456.
	for c, got := range counts {
		if math.Abs(float64(got)-want) > 460 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", c, got, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams should differ")
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromSlice(4, 3, []float64{
		1, 3, 2,
		5, 5, 4, // tie: lower index wins
		-2, -1, -3,
		0, 0, 0, // all equal: index 0
	})
	want := []int{1, 0, 1, 0}
	got := ArgMaxRows(m)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: argmax = %d, want %d", i, got[i], want[i])
		}
	}
}
