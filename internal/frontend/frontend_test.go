package frontend

import (
	"sync"
	"testing"

	"graph2par/internal/auggraph"
	"graph2par/internal/cast"
)

// TestScratchPipeline runs the full parse → build → encode chain through
// one scratch across Reset cycles and checks the results against the
// fresh-allocation path.
func TestScratchPipeline(t *testing.T) {
	const src = `void k(int n, int a[], int b[]) {
  int i;
  for (i = 0; i < n; i++) { a[i] = b[i] * 2; }
}`
	vocab := auggraph.NewVocab()
	opts := auggraph.Default()

	s := NewScratch()
	var wantEnc *auggraph.Encoded
	for round := 0; round < 5; round++ {
		file, err := s.Parse.ParseFile(src)
		if err != nil {
			t.Fatal(err)
		}
		var loop cast.Stmt
		cast.Walk(file.Funcs[0].Body, func(n cast.Node) bool {
			if f, ok := n.(*cast.For); ok && loop == nil {
				loop = f
			}
			return true
		})
		if loop == nil {
			t.Fatal("no loop found")
		}
		g := s.Graph.Build(loop, opts)
		if round == 0 {
			vocab.Add(g)
		}
		enc := s.Graph.Encode(vocab, g)
		if round == 0 {
			wantEnc = &auggraph.Encoded{
				KindIDs: append([]int(nil), enc.KindIDs...),
				AttrIDs: append([]int(nil), enc.AttrIDs...),
				TypeIDs: append([]int(nil), enc.TypeIDs...),
				Orders:  append([]int(nil), enc.Orders...),
				Root:    enc.Root,
			}
		} else {
			for i := range enc.KindIDs {
				if enc.KindIDs[i] != wantEnc.KindIDs[i] || enc.AttrIDs[i] != wantEnc.AttrIDs[i] ||
					enc.TypeIDs[i] != wantEnc.TypeIDs[i] || enc.Orders[i] != wantEnc.Orders[i] {
					t.Fatalf("round %d: recycled encode diverged at node %d", round, i)
				}
			}
		}
		s.Reset()
	}
}

// TestPoolConcurrent hammers Get/Put/PutAll from many goroutines (run
// under -race in CI).
func TestPoolConcurrent(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%2 == 0 {
					s := p.Get()
					if _, err := s.Parse.ParseStmt("for (i = 0; i < 3; i++) x += i;"); err != nil {
						t.Error(err)
					}
					p.Put(s)
				} else {
					p.PutAll([]*Scratch{p.Get(), p.Get(), p.Get()})
				}
			}
		}()
	}
	wg.Wait()
	// The pool must have accumulated scratches, not leaked them into
	// fresh allocations every time.
	if len(p.free) == 0 {
		t.Error("pool retained no scratches")
	}
}
