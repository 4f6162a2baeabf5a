// Package slab provides the one chunked bump allocator the repository's
// pooled hot paths share: AST nodes in the parser, the interpreter's
// per-address loop profile, autodiff tape nodes and matrix headers in nn. Allocating from
// chunks turns one heap object per value into one per chunk; keeping a
// single audited implementation keeps the (easy-to-fumble) chunk-advance
// and reset bookkeeping in exactly one place.
package slab

// Slab is a chunked bump allocator for values of one type. Chunks grow
// geometrically (8 → 1024 entries) so tiny workloads stay tiny while
// large ones amortize to one allocation per 1024 values. The zero value
// is ready to use. A Slab is single-goroutine state.
//
// Get does NOT zero recycled entries — callers either fully assign the
// returned value or zero it themselves. Reset zeroes the used prefix
// (releasing anything the old values pointed at) and rewinds; every
// previously returned pointer becomes invalid at that moment, so callers
// own the lifetime discipline (the scratch pools enforce it).
type Slab[T any] struct {
	chunks [][]T
	ci, ni int // next free: chunks[ci][ni]
}

// Get returns a pointer to the next free entry, growing by a fresh chunk
// when the current one is exhausted.
//
//graph2lint:noalloc
func (s *Slab[T]) Get() *T {
	if s.ci == len(s.chunks) {
		n := 1024
		if s.ci < 7 {
			n = 8 << s.ci
		}
		s.chunks = append(s.chunks, make([]T, n)) //graph2lint:allow noalloc -- amortized chunk growth: one allocation per 1024 values
	}
	c := s.chunks[s.ci]
	p := &c[s.ni]
	s.ni++
	if s.ni == len(c) {
		s.ci++
		s.ni = 0
	}
	return p
}

// Reset recycles every chunk, zeroing the used prefix so recycled entries
// hold no stale pointers for the GC to trace.
//
//graph2lint:noalloc
func (s *Slab[T]) Reset() {
	for i := 0; i <= s.ci && i < len(s.chunks); i++ {
		c := s.chunks[i]
		if i == s.ci {
			c = c[:s.ni]
		}
		clear(c)
	}
	s.ci, s.ni = 0, 0
}
