package graph2par

import (
	"sort"
	"testing"

	"graph2par/internal/auggraph"
	"graph2par/internal/cast"
	"graph2par/internal/clex"
	"graph2par/internal/cparse"
	"graph2par/internal/frontend"
)

// The BenchmarkFrontend* family isolates the uncached analysis front-end —
// tokenize → parse → aug-AST build → vocab encode — on the same 32-file
// corpus the AnalyzeFiles family shares. FrontendPipeline is the pooled
// steady state (one scratch, Reset per pass) the serving engine runs in;
// FrontendPipelineFresh is the same work through the fresh-allocation
// entry points (the discipline of retained results, and the within-run
// comparator CI gates the pooled path against). allocs/op of these rows is
// machine-independent, which is what BENCH_pr5.json pins.

// frontendSources returns the shared corpus in deterministic order.
func frontendSources() []string {
	files := corpusFiles(benchCorpusSize)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = files[name]
	}
	return out
}

// frontendVocab builds a frozen vocabulary over the corpus, mirroring the
// trained-model situation encode runs under.
func frontendVocab(b *testing.B, sources []string) *auggraph.Vocab {
	b.Helper()
	vocab := auggraph.NewVocab()
	for _, src := range sources {
		file, err := cparse.ParseFile(src)
		if err != nil {
			b.Fatal(err)
		}
		opts := auggraph.Default()
		opts.Funcs = file.DefinedFuncs()
		for _, l := range file.Loops() {
			vocab.Add(auggraph.Build(l.Loop, opts))
		}
	}
	return vocab
}

// BenchmarkFrontendTokenize measures the byte-slice lexer alone with a
// recycled token buffer.
func BenchmarkFrontendTokenize(b *testing.B) {
	sources := frontendSources()
	var buf []clex.Token
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			toks, err := clex.TokenizeInto(src, buf)
			if err != nil {
				b.Fatal(err)
			}
			if len(toks) == 0 {
				b.Fatal("no tokens")
			}
			buf = toks
		}
	}
}

// BenchmarkFrontendParse measures tokenize + parse through one recycled
// session.
func BenchmarkFrontendParse(b *testing.B) {
	sources := frontendSources()
	sess := cparse.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			file, err := sess.ParseFile(src)
			if err != nil {
				b.Fatal(err)
			}
			if len(file.Funcs) == 0 {
				b.Fatal("no functions")
			}
		}
		sess.Reset()
	}
}

// BenchmarkFrontendBuildGraph measures aug-AST construction alone over
// pre-parsed loops with a recycled builder.
func BenchmarkFrontendBuildGraph(b *testing.B) {
	sources := frontendSources()
	type prepared struct {
		loop  cast.Stmt
		funcs map[string]*cast.FuncDecl
	}
	var loops []prepared
	for _, src := range sources {
		file, err := cparse.ParseFile(src)
		if err != nil {
			b.Fatal(err)
		}
		funcs := file.DefinedFuncs()
		for _, l := range file.Loops() {
			loops = append(loops, prepared{loop: l.Loop, funcs: funcs})
		}
	}
	builder := auggraph.NewBuilder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range loops {
			opts := auggraph.Default()
			opts.Funcs = p.funcs
			g := builder.Build(p.loop, opts)
			if len(g.Nodes) == 0 {
				b.Fatal("empty graph")
			}
		}
		builder.Reset()
	}
}

// BenchmarkFrontendEncode measures vocab encoding alone (interned-symbol
// array lookups on the pooled path) over pre-built graphs.
func BenchmarkFrontendEncode(b *testing.B) {
	sources := frontendSources()
	vocab := frontendVocab(b, sources)
	builder := auggraph.NewBuilder()
	var graphs []*auggraph.Graph
	for _, src := range sources {
		file, err := cparse.ParseFile(src)
		if err != nil {
			b.Fatal(err)
		}
		opts := auggraph.Default()
		opts.Funcs = file.DefinedFuncs()
		for _, l := range file.Loops() {
			// Detached graphs survive the per-pass Reset below, which then
			// only recycles the encodings.
			graphs = append(graphs, builder.BuildDetached(l.Loop, opts))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			enc := builder.Encode(vocab, g)
			if len(enc.KindIDs) != len(g.Nodes) {
				b.Fatal("bad encoding")
			}
		}
		builder.Reset()
	}
}

// BenchmarkFrontendPipeline is the pooled steady state: the full
// parse → graph → encode chain for every loop of the corpus through one
// recycled scratch, reset once per pass exactly like a served request.
func BenchmarkFrontendPipeline(b *testing.B) {
	sources := frontendSources()
	vocab := frontendVocab(b, sources)
	scr := frontend.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, src := range sources {
			file, err := scr.Parse.ParseFile(src)
			if err != nil {
				b.Fatal(err)
			}
			opts := auggraph.Default()
			opts.Funcs = file.DefinedFuncs()
			for _, l := range file.Loops() {
				g := scr.Graph.Build(l.Loop, opts)
				enc := scr.Graph.Encode(vocab, g)
				total += len(enc.KindIDs)
			}
		}
		if total == 0 {
			b.Fatal("pipeline produced no nodes")
		}
		scr.Reset()
	}
}

// BenchmarkFrontendPipelineFresh runs the identical work through the
// fresh-allocation entry points (cparse.ParseFile, auggraph.Build,
// Vocab.Encode) — the retained-results discipline. The within-run ratio
// FrontendPipeline/FrontendPipelineFresh is CI's machine-independent proof
// that scratch pooling keeps paying for itself.
func BenchmarkFrontendPipelineFresh(b *testing.B) {
	sources := frontendSources()
	vocab := frontendVocab(b, sources)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, src := range sources {
			file, err := cparse.ParseFile(src)
			if err != nil {
				b.Fatal(err)
			}
			opts := auggraph.Default()
			opts.Funcs = file.DefinedFuncs()
			for _, l := range file.Loops() {
				g := auggraph.Build(l.Loop, opts)
				enc := vocab.Encode(g)
				total += len(enc.KindIDs)
			}
		}
		if total == 0 {
			b.Fatal("pipeline produced no nodes")
		}
	}
}
