package cinterp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"graph2par/internal/slab"
)

// Role says what the loop-access profile does with the object a watched
// name resolves to.
type Role uint8

const (
	// Named objects are profiled like any other; their cells carry the
	// name.
	Named Role = iota
	// Exempt objects are not profiled at all: the induction variable and
	// the variables a clause makes loop-local.
	Exempt
	// Reduction marks a scalar whose cell is profiled with both
	// write-count rules (see Cell). A Reduction name that resolves to an
	// array is only Named.
	Reduction
)

// Watch names one variable visible at the instrumented loop's scope.
type Watch struct {
	Name string
	Role Role
}

// Profile is what one forward run learned about the accesses made inside
// the instrumented loop, at any call depth, folded by address.
type Profile struct {
	// MaxIter is the largest iteration index of any access, exempt
	// objects included; -1 when the loop ran no iteration.
	MaxIter int
	// ArrayWritten reports whether any profiled array element was written.
	ArrayWritten bool
	// Cells lists, in address order, every profiled cell that is Shared
	// and every cell a Reduction watch named.
	Cells []Cell
}

// Cell is one profiled address.
type Cell struct {
	Addr Addr
	// Name is the watched name that resolved to the cell's object, or ""
	// (the last one in Watch order when several did).
	Name string
	// Reduction marks a cell a Reduction watch named.
	Reduction bool
	// Shared reports a cell that was written and touched in more than one
	// iteration: a cross-iteration dependence unless explained.
	Shared bool
	// OncePerIter (Reduction cells) reports that every iteration index
	// that touched the cell wrote it exactly once, counted over all
	// entries of the loop.
	OncePerIter bool
	// RepeatedWrite (Reduction cells) reports that one iteration wrote the
	// cell twice with no write from another iteration in between.
	RepeatedWrite bool
}

// The profile lives on the objects it profiles, so that an access finds
// its entry through the object it already holds instead of hashing its
// address. A scalar cell points at its own scalarProfile; an array points
// at an arrayProfile holding one elemChunk for each chunk of cells the
// loop touched. Both also carry the marks the current loop entry's watch
// list put on the object. Every entry comes from the run's profiler, whose
// slabs are pooled across runs, so a run allocates nothing per address in
// steady state.
//
// A run may hold at most maxProfileChunks elemChunks at once, apart from
// its array cell budget (array.go): a read of a chunk that was never
// written creates no cells, so a loop that strides over large untouched
// arrays would otherwise grow the profile by 4 KB per access. When an
// array's block ends, its Shared cells move to the profiler's finished
// list and its chunks to a free list, so an array the loop body declares
// afresh each iteration is profiled in one chunk. Keeping the bound apart
// from the cell budget means tracing a loop never changes which runs the
// cell budget refuses.

// elemProfile is one address's profile while the run lasts.
type elemProfile struct {
	firstIter int
	touched   bool
	multiIter bool
	written   bool
}

// elemChunk profiles the cells of one array chunk.
type elemChunk [chunkCells]elemProfile

// scalarProfile is a scalar cell's profile and marks.
type scalarProfile struct {
	elemProfile
	obj  int
	red  *redWrites // set at first touch when the cell is marked Reduction
	name string     // the last watched name that resolved to the cell
	// exempt and reduction are the current loop entry's marks.
	exempt, reduction bool
}

// arrayProfile is an array's profile and marks.
type arrayProfile struct {
	obj    int
	chunks []*elemChunk // by array chunk; nil until the loop touches the array
	name   string
	exempt bool
}

// redWrites holds a reduction cell's write counts for both rules.
type redWrites struct {
	// perIter counts writes per iteration index, -1 where the index never
	// touched the cell.
	perIter   []int32
	lastWrite int // iteration of the latest write
	repeated  bool
}

func (r *redWrites) add(write bool, iter int) {
	for len(r.perIter) <= iter {
		r.perIter = append(r.perIter, -1)
	}
	r.perIter[iter] = max(r.perIter[iter], 0)
	if write {
		r.perIter[iter]++
		r.repeated = r.repeated || iter == r.lastWrite
		r.lastWrite = iter
	}
}

func (r *redWrites) oncePerIter() bool {
	for _, n := range r.perIter {
		if n >= 0 && n != 1 {
			return false
		}
	}
	return true
}

// profiler folds a run's accesses into the profiles on its objects and
// lists the objects the loop touched, for summary.
type profiler struct {
	scalarSlab slab.Slab[scalarProfile]
	arraySlab  slab.Slab[arrayProfile]
	chunkSlab  slab.Slab[elemChunk]
	// chunksTaken counts the chunks the run took from chunkSlab; free
	// holds the zeroed chunks of retired arrays for reuse, so the run
	// holds chunksTaken - len(free) chunks.
	chunksTaken int
	free        []*elemChunk
	// scalars and arrays are the touched objects, in first-touch order.
	scalars []*scalarProfile
	arrays  []*arrayProfile
	// done holds the Shared cells of the arrays retired so far.
	done []Cell
	// markedScalars and markedArrays carry the current entry's marks.
	markedScalars []*scalarProfile
	markedArrays  []*arrayProfile
	maxIter       int
	arrayW        bool
}

var profilerPool = sync.Pool{New: func() any { return &profiler{maxIter: -1} }}

// maxProfileChunks caps the element chunks one run holds: as many
// entries as the run's cell budget has cells, 64 MB. maxPooledChunks
// bounds the chunks a pooled profiler keeps: a run that took more drops
// its profiler rather than pool it.
const (
	maxProfileChunks = maxRunCells / chunkCells
	maxPooledChunks  = 1024
)

func (p *profiler) ofCell(c *cell) *scalarProfile {
	if c.prof == nil {
		c.prof = p.scalarSlab.Get()
		c.prof.obj = c.id
	}
	return c.prof
}

func (p *profiler) ofArray(a *array) *arrayProfile {
	if a.prof == nil {
		a.prof = p.arraySlab.Get()
		a.prof.obj = a.id
	}
	return a.prof
}

// markWatched marks the objects the watched names resolve to at the
// instrumented loop's scope, on each entry. The exemptions and reduction
// marks it sets replace the previous entry's; the names add to them.
func (in *Interp) markWatched(fr *frame) {
	p := in.prof
	for _, sp := range p.markedScalars {
		sp.exempt, sp.reduction = false, false
	}
	for _, ap := range p.markedArrays {
		ap.exempt = false
	}
	p.markedScalars, p.markedArrays = p.markedScalars[:0], p.markedArrays[:0]
	for i, w := range in.Watch {
		b, ok := in.lookupRef(fr, in.res.watch[i])
		if !ok {
			continue
		}
		switch {
		case b.cell != nil:
			sp := p.ofCell(b.cell)
			sp.name = w.Name
			sp.exempt = sp.exempt || w.Role == Exempt
			sp.reduction = sp.reduction || w.Role == Reduction
			p.markedScalars = append(p.markedScalars, sp)
		case b.arr != nil:
			ap := p.ofArray(b.arr)
			ap.name = w.Name
			ap.exempt = ap.exempt || w.Role == Exempt
			p.markedArrays = append(p.markedArrays, ap)
		}
	}
}

// access folds one access made inside the instrumented loop. It fails
// only when an array access needs a chunk past maxProfileChunks.
func (p *profiler) access(lv lvalue, write bool, iter int) error {
	if iter > p.maxIter {
		p.maxIter = iter
	}
	if lv.cell != nil {
		sp := p.ofCell(lv.cell)
		if sp.exempt {
			return nil
		}
		if !sp.touched && sp.reduction {
			sp.red = &redWrites{lastWrite: -1}
		}
		if touch(&sp.elemProfile, write, iter) {
			p.scalars = append(p.scalars, sp)
		}
		if sp.red != nil {
			sp.red.add(write, iter)
		}
		return nil
	}
	ap := p.ofArray(lv.arr)
	if ap.exempt {
		return nil
	}
	if ap.chunks == nil {
		ap.chunks = make([]*elemChunk, len(lv.arr.chunks))
		p.arrays = append(p.arrays, ap)
	}
	k := lv.elem >> chunkShift
	if ap.chunks[k] == nil {
		if len(p.free) == 0 && p.chunksTaken == maxProfileChunks {
			return &ErrUnsupported{What: fmt.Sprintf("profiled cells over %d in one run", maxProfileChunks*chunkCells)}
		}
		ap.chunks[k] = p.newChunk()
	}
	touch(&ap.chunks[k][lv.elem&chunkMask], write, iter)
	p.arrayW = p.arrayW || write
	return nil
}

// newChunk returns a zeroed element chunk, reusing a retired one first.
func (p *profiler) newChunk() *elemChunk {
	if n := len(p.free); n > 0 {
		ch := p.free[n-1]
		p.free = p.free[:n-1]
		return ch
	}
	p.chunksTaken++
	return p.chunkSlab.Get()
}

// retire folds the profile of an array whose block has ended: no access
// can reach it again, so its Shared cells are final. They move to done,
// and its chunks to the free list.
func (p *profiler) retire(ap *arrayProfile) {
	for k, ch := range ap.chunks {
		if ch == nil {
			continue
		}
		p.done = appendShared(p.done, ap, k, ch)
		*ch = elemChunk{}
		p.free = append(p.free, ch)
	}
	ap.chunks = nil
}

// appendShared appends the Shared cells of ap's chunk k to cells.
func appendShared(cells []Cell, ap *arrayProfile, k int, ch *elemChunk) []Cell {
	for j := range ch {
		if e := &ch[j]; e.written && e.multiIter {
			elem := int64(k)<<chunkShift + int64(j)
			cells = append(cells, Cell{Addr: Addr{Obj: ap.obj, Elem: elem}, Name: ap.name, Shared: true})
		}
	}
	return cells
}

// touch folds one access into e and reports whether it was e's first.
func touch(e *elemProfile, write bool, iter int) bool {
	first := !e.touched
	if first {
		e.touched, e.firstIter = true, iter
	} else if iter != e.firstIter {
		e.multiIter = true
	}
	e.written = e.written || write
	return first
}

// summary walks the touched objects into the caller's Profile.
func (p *profiler) summary() Profile {
	out := Profile{MaxIter: p.maxIter, ArrayWritten: p.arrayW}
	out.Cells = append(out.Cells, p.done...)
	for _, sp := range p.scalars {
		shared := sp.written && sp.multiIter
		if !shared && sp.red == nil {
			continue
		}
		c := Cell{Addr: Addr{Obj: sp.obj, Elem: ScalarElem}, Name: sp.name, Reduction: sp.red != nil, Shared: shared}
		if sp.red != nil {
			c.OncePerIter = sp.red.oncePerIter()
			c.RepeatedWrite = sp.red.repeated
		}
		out.Cells = append(out.Cells, c)
	}
	for _, ap := range p.arrays {
		for k, ch := range ap.chunks {
			if ch != nil {
				out.Cells = appendShared(out.Cells, ap, k, ch)
			}
		}
	}
	slices.SortFunc(out.Cells, func(x, y Cell) int {
		if c := cmp.Compare(x.Addr.Obj, y.Addr.Obj); c != 0 {
			return c
		}
		return cmp.Compare(x.Addr.Elem, y.Addr.Elem)
	})
	return out
}

func (p *profiler) reset() {
	p.scalarSlab.Reset()
	p.arraySlab.Reset()
	p.chunkSlab.Reset()
	clear(p.free)
	clear(p.scalars)
	clear(p.arrays)
	clear(p.done)
	clear(p.markedScalars)
	clear(p.markedArrays)
	p.free, p.scalars, p.arrays, p.done = p.free[:0], p.scalars[:0], p.arrays[:0], p.done[:0]
	p.markedScalars, p.markedArrays = p.markedScalars[:0], p.markedArrays[:0]
	p.chunksTaken, p.maxIter, p.arrayW = 0, -1, false
}
