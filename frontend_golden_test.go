package graph2par

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestScratchReuseByteIdentical pins the zero-allocation front-end's core
// invariant: analyses served from recycled scratches (token buffers, AST
// slabs, graph/encoding storage, inference arenas) are byte-for-byte
// identical to the first, fresh-memory run. Round 0 populates the engine's
// scratch pool; every later round reuses recycled memory, so any stale
// state — an unzeroed buffer, a leaked map entry, an aliased slice — shows
// up as a diff here (and under -race in CI as a data race).
func TestScratchReuseByteIdentical(t *testing.T) {
	e := engine(t)
	files := corpusFiles(8)

	first, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round < 4; round++ {
		again, err := e.AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round %d: recycled-scratch analysis diverged from the fresh run", round)
		}
	}

	// The per-file entry point shares the same pool.
	srcReports := analyze(t, e, simpleProgram)
	for round := 0; round < 3; round++ {
		if again := analyze(t, e, simpleProgram); !reflect.DeepEqual(srcReports, again) {
			t.Fatalf("AnalyzeSourceContext round %d diverged", round)
		}
	}
}

// TestScratchReuseConcurrent hammers the pool from concurrent AnalyzeFiles
// and AnalyzeSourceContext calls (the serving profile: many requests
// sharing one warm engine). Run under -race this is the scratch-safety
// gate; the result equality doubles as a cross-goroutine determinism
// check.
func TestScratchReuseConcurrent(t *testing.T) {
	e := engine(t)
	files := corpusFiles(6)
	want, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	wantSrc := analyze(t, e, simpleProgram)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if g%2 == 0 {
					got, err := e.AnalyzeFiles(files)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("goroutine %d round %d: AnalyzeFiles diverged", g, round)
						return
					}
				} else {
					got, err := e.AnalyzeSourceContext(context.Background(), simpleProgram)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(wantSrc, got) {
						t.Errorf("goroutine %d round %d: AnalyzeSourceContext diverged", g, round)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
