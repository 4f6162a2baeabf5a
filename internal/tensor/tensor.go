// Package tensor provides the dense float64 matrix primitives the neural
// stack is built on: allocation, seeded random initialization, BLAS-level-3
// style operations, and the softmax/layernorm kernels. Everything is plain
// Go over flat slices; determinism comes from the splitmix64-based RNG.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows×Cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
//
//graph2lint:noalloc
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
//
//graph2lint:noalloc
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
//
//graph2lint:noalloc
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
//
//graph2lint:noalloc
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ---------------------------------------------------------------------------
// RNG

// RNG is a splitmix64 generator with a Box-Muller normal sampler; it is the
// only source of randomness in the repository, so every experiment is
// reproducible from its seed.
type RNG struct {
	state    uint64
	spare    float64
	hasSpare bool
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value (splitmix64).
//
//graph2lint:noalloc
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
//
//graph2lint:noalloc
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). A plain `Uint64() % n` over-weights
// the low residues whenever n does not divide 2^64, so the non-power-of-two
// path rejects draws from the short top band and retries; the expected
// retry count is n/2^64 per call, i.e. effectively zero.
//
//graph2lint:noalloc
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return int(r.Uint64() & (u - 1))
	}
	// limit+1 is the largest multiple of n representable in a uint64;
	// draws above limit fall in the partial band [limit+1, 2^64) whose
	// residues would otherwise occur one extra time each.
	rem := (math.MaxUint64%u + 1) % u
	limit := math.MaxUint64 - rem
	for {
		if v := r.Uint64(); v <= limit {
			return int(v % u)
		}
	}
}

// Norm returns a standard normal sample.
//
//graph2lint:noalloc
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		mag := math.Sqrt(-2 * math.Log(u))
		r.spare = mag * math.Sin(2*math.Pi*v)
		r.hasSpare = true
		return mag * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator (for deterministic parallel use).
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// RNGState is the serializable snapshot of a generator: restoring it
// continues the stream exactly where the snapshot was taken, including the
// buffered Box-Muller spare. Training checkpoints embed it so a resumed run
// draws the same permutations and dropout seeds as an uninterrupted one.
type RNGState struct {
	State    uint64
	Spare    float64
	HasSpare bool
}

// Snapshot captures the generator's current state.
func (r *RNG) Snapshot() RNGState {
	return RNGState{State: r.state, Spare: r.spare, HasSpare: r.hasSpare}
}

// Restore rewinds the generator to a snapshot.
func (r *RNG) Restore(st RNGState) {
	r.state, r.spare, r.hasSpare = st.State, st.Spare, st.HasSpare
}

// Xavier fills m with Glorot-uniform values scaled by fan-in/fan-out.
func (m *Matrix) Xavier(r *RNG) *Matrix {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (2*r.Float64() - 1) * limit
	}
	return m
}

// Gaussian fills m with N(0, std²) values.
func (m *Matrix) Gaussian(r *RNG, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = r.Norm() * std
	}
	return m
}

// ---------------------------------------------------------------------------
// kernels

// MatMul computes out = a·b, allocating out.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// The three MatMul kernels below are safe everywhere the repository relies
// on bit-identical floating-point results (batch-vs-single inference,
// worker-count-independent training) because every output element
// accumulates its terms over the shared dimension in ascending order, no
// matter how the loops around it are blocked. Blocking is therefore a pure
// cache optimization: any block size produces the same bytes as the naive
// triple loop. Each kernel runs on the calling goroutine; parallelism
// lives one level up, in the engine's and the trainer's worker pools.

// matMulRowBlock is the row-group size of the tiled kernels: one block of
// output rows reuses each streamed b-row blockRows times, cutting main-memory
// traffic on the larger operand by the same factor.
const matMulRowBlock = 8

// MatMulInto computes out = a·b into an existing matrix.
//
//graph2lint:noalloc
func MatMulInto(out, a, b *Matrix) {
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: matmul output shape mismatch")
	}
	matMulRange(out, a, b, 0, a.Rows)
}

// matMulRange runs the tiled out = a·b kernel over output rows [lo, hi).
//
//graph2lint:noalloc
func matMulRange(out, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Cols
	for i0 := lo; i0 < hi; i0 += matMulRowBlock {
		i1 := i0 + matMulRowBlock
		if i1 > hi {
			i1 = hi
		}
		blk := out.Data[i0*m : i1*m]
		for x := range blk {
			blk[x] = 0
		}
		// p outer / i inner reuses each b-row across the whole row
		// block; element (i,j) still accumulates over ascending p.
		for p := 0; p < k; p++ {
			brow := b.Data[p*m : (p+1)*m]
			for i := i0; i < i1; i++ {
				av := a.Data[i*k+p]
				if av == 0 {
					continue
				}
				orow := out.Data[i*m : (i+1)*m]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// MatMulATInto computes out += aᵀ·b (used by backward passes). Output rows
// are columns of a; each element accumulates over the rows of a and b in
// ascending order.
//
//graph2lint:noalloc
func MatMulATInto(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: matmulAT shape mismatch")
	}
	matMulATRange(out, a, b, 0, a.Cols)
}

// matMulATRange runs the out += aᵀ·b kernel over output rows [lo, hi).
//
//graph2lint:noalloc
func matMulATRange(out, a, b *Matrix, lo, hi int) {
	n, k, m := a.Rows, a.Cols, b.Cols
	for p := 0; p < n; p++ {
		arow := a.Data[p*k : (p+1)*k]
		brow := b.Data[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*m : (i+1)*m]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulBTInto computes out += a·bᵀ (used by backward passes).
//
//graph2lint:noalloc
func MatMulBTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: matmulBT shape mismatch")
	}
	matMulBTRange(out, a, b, 0, a.Rows)
}

// matMulBTRange runs the out += a·bᵀ kernel over output rows [lo, hi).
//
//graph2lint:noalloc
func matMulBTRange(out, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] += s
		}
	}
}

// AddInPlace computes a += b.
//
//graph2lint:noalloc
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: add shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
//
//graph2lint:noalloc
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
//
//graph2lint:noalloc
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgMaxRows returns the index of the largest element of each row, ties
// broken toward the lower index. It is the class-selection kernel shared
// by single-graph and batched prediction, so both paths pick classes with
// exactly the same comparison order.
func ArgMaxRows(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestV := 0, row[0]
		for j := 1; j < len(row); j++ {
			if row[j] > bestV {
				best, bestV = j, row[j]
			}
		}
		out[i] = best
	}
	return out
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Equal reports element-wise equality within eps.
func Equal(a, b *Matrix, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}
