package cinterp

import "fmt"

// Arrays are stored as fixed-size chunks of chunkCells cells. A chunk is
// created on its first write, so declaring an array costs one nil pointer
// per chunk and an untouched chunk reads as the array's typed zero. A
// snapshot copies only the chunk pointers and bumps the array's
// generation; a later write to a chunk stamped with an older generation
// copies that one chunk first, so every snapshot stays as it was taken.
const (
	chunkShift = 8
	chunkCells = 1 << chunkShift // 256 cells, 6 KB
	chunkMask  = chunkCells - 1
)

// maxArrayCells caps one array's declared size. maxRunCells caps the
// cells one run holds in fresh chunks, across all its arrays, so that one
// maximal array can still be written in full; copies made for snapshots
// do not count. When a block ends, the cells of its arrays go back to the
// budget unless a snapshot shares them. The interpreter keeps at most one
// snapshot per captured array, so a run holds at most twice maxRunCells
// cells. The loop profile has a bound of its own (profile.go).
const (
	maxArrayCells = 4_000_000
	maxRunCells   = maxArrayCells
)

// chunk is one run of cells, stamped with the array generation that may
// write it in place.
type chunk struct {
	gen   int
	cells []Value
}

// array is a (possibly multi-dimensional) array object.
type array struct {
	id      int
	dims    []int64
	size    int64 // cells, the product of dims
	isFloat bool  // element type; selects the typed zero
	gen     int
	chunks  []*chunk
	// left is the run's remaining cell budget, shared by all its arrays.
	left *int64
	prof *arrayProfile // set once the traced loop touches or watches the array
}

func (a *array) flatten(idx []int64) (int64, error) {
	if len(idx) != len(a.dims) {
		return 0, fmt.Errorf("array rank mismatch: %d subscripts, %d dims", len(idx), len(a.dims))
	}
	var flat int64
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, fmt.Errorf("index %d out of bounds [0,%d)", i, a.dims[d])
		}
		flat = flat*a.dims[d] + i
	}
	return flat, nil
}

// zero is the value of a cell that was never written. Float arrays read
// FloatVal(0), so a comparison of captured values sees the same IsFloat
// as a written cell of the same type.
func (a *array) zero() Value {
	if a.isFloat {
		return FloatVal(0)
	}
	return Value{}
}

// get reads the cell at flat index i.
func (a *array) get(i int64) Value {
	if c := a.chunks[i>>chunkShift]; c != nil {
		return c.cells[i&chunkMask]
	}
	return a.zero()
}

// set writes the cell at flat index i. It fails only when the write would
// create a chunk past the run's cell budget.
func (a *array) set(i int64, v Value) error {
	c := a.chunks[i>>chunkShift]
	if c == nil || c.gen != a.gen {
		var err error
		if c, err = a.own(i >> chunkShift); err != nil {
			return err
		}
	}
	c.cells[i&chunkMask] = v
	return nil
}

// own makes chunk k writable in place: it creates the chunk, charging its
// cells to the run's budget, or copies a chunk that a snapshot shares.
func (a *array) own(k int64) (*chunk, error) {
	c := &chunk{gen: a.gen}
	if old := a.chunks[k]; old != nil {
		c.cells = append([]Value(nil), old.cells...)
	} else {
		n := min(chunkCells, a.size-k<<chunkShift)
		if n > *a.left {
			return nil, &ErrUnsupported{What: fmt.Sprintf("array cells over %d in one run", maxRunCells)}
		}
		*a.left -= n
		c.cells = make([]Value, n)
		if a.isFloat {
			for j := range c.cells {
				c.cells[j] = FloatVal(0)
			}
		}
	}
	a.chunks[k] = c
	return c, nil
}

// cells counts the cells the array's chunks hold.
func (a *array) cells() int64 {
	var n int64
	for _, c := range a.chunks {
		if c != nil {
			n += int64(len(c.cells))
		}
	}
	return n
}

// snapshot returns a read-only copy of the array that shares its chunks.
func (a *array) snapshot() *array {
	s := *a
	s.chunks = append([]*chunk(nil), a.chunks...)
	a.gen++
	return &s
}

// dense returns every cell of the array in one flat slice.
func (a *array) dense() []Value {
	out := make([]Value, a.size)
	for k, c := range a.chunks {
		lo := int64(k) << chunkShift
		seg := out[lo:min(lo+chunkCells, a.size)]
		if c != nil {
			copy(seg, c.cells)
			continue
		}
		for j := range seg {
			seg[j] = a.zero()
		}
	}
	return out
}
