// Benchmarks for the matrix kernels shared by training and inference.
// The MatMul family is one of the two rows of BENCH_pr4.json: CI runs it
// every push so the tiled kernels cannot quietly lose their throughput.
package tensor

import (
	"fmt"
	"testing"
)

// benchMatMul times out = a·b at one square size.
func benchMatMul(b *testing.B, n int) {
	rng := NewRNG(uint64(n))
	a := New(n, n).Gaussian(rng, 1)
	c := New(n, n).Gaussian(rng, 1)
	out := New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, a, c)
	}
}

// BenchmarkMatMulSmall is the per-example training shape.
func BenchmarkMatMulSmall(b *testing.B) { benchMatMul(b, 48) }

// BenchmarkMatMulMedium sits at a typical batched-inference union size.
func BenchmarkMatMulMedium(b *testing.B) { benchMatMul(b, 192) }

// BenchmarkMatMulLarge does eight times Medium's multiply-adds.
func BenchmarkMatMulLarge(b *testing.B) { benchMatMul(b, 384) }

// BenchmarkMatMulBackward times the two transposed accumulation kernels the
// backward pass is made of, at the training aspect ratio (tall activations
// × square weights).
func BenchmarkMatMulBackward(b *testing.B) {
	const rows, d = 256, 48
	rng := NewRNG(7)
	x := New(rows, d).Gaussian(rng, 1)
	dOut := New(rows, d).Gaussian(rng, 1)
	w := New(d, d).Gaussian(rng, 1)
	dW := New(d, d)
	dX := New(rows, d)
	for _, sub := range []struct {
		name string
		fn   func()
	}{
		{"AT", func() { MatMulATInto(dW, x, dOut) }},
		{"BT", func() { MatMulBTInto(dX, dOut, w) }},
	} {
		b.Run(sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sub.fn()
			}
		})
	}
}

func init() {
	// Guard against accidentally benchmarking a debug build of the kernels:
	// a quick self-check that the tiled kernels agree with a spot product.
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := MatMul(a, a)
	if want := 7.0; c.At(0, 0) != want {
		panic(fmt.Sprintf("tensor: kernel self-check failed: %v", c.Data))
	}
}
