package cinterp

import (
	"cmp"
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

// addrProfile is one address's profile while the run lasts.
type addrProfile struct {
	firstIter int
	multiIter bool
	written   bool
	red       *redWrites // Reduction cells only
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

// profiler folds a run's accesses into per-address profiles. Its map and
// the slab its entries come from are pooled across runs, so a run
// allocates nothing per address in steady state.
type profiler struct {
	m       map[Addr]*addrProfile
	addrs   slab.Slab[addrProfile]
	maxIter int
	arrayW  bool
	// exempt and reds are the objects the current entry's resolution
	// exempts and the scalar cells it marks Reduction; names maps every
	// object any entry resolved to its name.
	exempt []int
	reds   []int
	names  map[int]string
}

// maxPooledAddrs bounds the profilers the pool keeps. Clearing or ranging
// a map costs its peak size, so a profiler that once held a large array
// would tax every small run that drew it after.
const maxPooledAddrs = 1 << 12

var profilerPool = sync.Pool{New: func() any {
	return &profiler{m: map[Addr]*addrProfile{}, names: map[int]string{}, maxIter: -1}
}}

// resolve looks the watched names up at the instrumented loop's scope,
// on each entry. The exemptions and reduction cells it finds replace the
// previous entry's; the names add to them.
func (p *profiler) resolve(sc *scope, watch []Watch) {
	p.exempt, p.reds = p.exempt[:0], p.reds[:0]
	for _, w := range watch {
		b, ok := sc.lookup(w.Name)
		if !ok {
			continue
		}
		var obj int
		switch {
		case b.cell != nil:
			obj = b.cell.id
			if w.Role == Reduction {
				p.reds = append(p.reds, obj)
			}
		case b.arr != nil:
			obj = b.arr.id
		default:
			continue
		}
		if w.Role == Exempt {
			p.exempt = append(p.exempt, obj)
		}
		p.names[obj] = w.Name
	}
}

func (p *profiler) access(a Addr, write bool, iter int) {
	if iter > p.maxIter {
		p.maxIter = iter
	}
	if slices.Contains(p.exempt, a.Obj) {
		return
	}
	e := p.m[a]
	if e == nil {
		e = p.addrs.Get()
		*e = addrProfile{firstIter: iter}
		if a.Elem == ScalarElem && slices.Contains(p.reds, a.Obj) {
			e.red = &redWrites{lastWrite: -1}
		}
		p.m[a] = e
	} else if iter != e.firstIter {
		e.multiIter = true
	}
	if write {
		e.written = true
		if a.Elem >= 0 {
			p.arrayW = true
		}
	}
	if e.red != nil {
		e.red.add(write, iter)
	}
}

// summary turns the folded accesses into the caller's Profile.
func (p *profiler) summary() Profile {
	out := Profile{MaxIter: p.maxIter, ArrayWritten: p.arrayW}
	for a, e := range p.m {
		shared := e.written && e.multiIter
		if !shared && e.red == nil {
			continue
		}
		c := Cell{Addr: a, Name: p.names[a.Obj], Reduction: e.red != nil, Shared: shared}
		if e.red != nil {
			c.OncePerIter = e.red.oncePerIter()
			c.RepeatedWrite = e.red.repeated
		}
		out.Cells = append(out.Cells, c)
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
	clear(p.m)
	clear(p.names)
	p.addrs.Reset()
	p.maxIter, p.arrayW = -1, false
	p.exempt, p.reds = p.exempt[:0], p.reds[:0]
}
