// Package frontend bundles the analysis front-end's reusable memory — the
// lexer/parser session (token buffer + AST slabs) and the aug-AST builder
// (graph/encoding storage, CFG scratch, symbol table) — into one Scratch
// checked out per worker, plus the Pool that recycles scratches across
// requests. It is the front-end counterpart of nn.ScratchPool: after a few
// requests a long-running engine serves the whole parse → graph → encode
// pipeline from recycled memory.
//
// Ownership rules, which every caller must follow:
//
//   - a Scratch belongs to exactly one goroutine between Get and Put;
//   - everything produced through it (ASTs, graphs, encodings) is valid
//     until Put (which Resets); nothing may be retained past that point —
//     reports are strings and copies, so the engine's outputs never
//     reference scratch memory;
//   - results that must outlive the scratch use the detached paths
//     (cparse.ParseFile, auggraph.Build / BuildDetached, Vocab.Encode).
package frontend

import (
	"sync"

	"graph2par/internal/auggraph"
	"graph2par/internal/cparse"
)

// Scratch is one worker's front-end memory bundle.
type Scratch struct {
	// Parse owns the token buffer and AST slabs.
	Parse *cparse.Session
	// Graph owns aug-AST and encoding storage plus the symbol table.
	Graph *auggraph.Builder
}

// NewScratch returns an empty bundle.
func NewScratch() *Scratch {
	return &Scratch{
		Parse: cparse.NewSession(),
		Graph: auggraph.NewBuilder(),
	}
}

// Reset recycles everything the scratch has produced since the previous
// Reset. All ASTs, graphs and encodings built through it become invalid.
//
//graph2lint:noalloc
func (s *Scratch) Reset() {
	s.Parse.Reset()
	s.Graph.Reset()
}

// Pool hands out Scratch bundles. Get/Put are safe for concurrent use;
// each bundle is owned by exactly one goroutine between the two. Bundles
// carry no request state across checkouts (Put Resets), so which worker
// receives which bundle cannot influence any computed byte.
type Pool struct {
	mu   sync.Mutex
	free []*Scratch
}

// Get returns a scratch, creating one if the pool is empty.
//
//graph2lint:noalloc
func (p *Pool) Get() *Scratch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return NewScratch() //graph2lint:allow noalloc -- pool miss constructs the scratch the pool exists to amortize
}

// Put resets the scratch and parks it for reuse.
//
//graph2lint:noalloc
func (p *Pool) Put(s *Scratch) {
	s.Reset()
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// PutAll returns every scratch of a checkout of several, such as the
// engine's per-call set.
func (p *Pool) PutAll(ss []*Scratch) {
	for _, s := range ss {
		if s != nil {
			p.Put(s)
		}
	}
}
