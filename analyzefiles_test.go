package graph2par

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// corpusFiles generates n distinct C translation units, each with a mix of
// do-all, reduction, recurrence and privatizable-temp loops, sized so the
// dynamic comparator has real work to do per file.
func corpusFiles(n int) map[string]string {
	files := make(map[string]string, n)
	for i := 0; i < n; i++ {
		size := 48 + 8*i
		files[fmt.Sprintf("file_%02d.c", i)] = fmt.Sprintf(`
int main() {
    int a[%[1]d], b[%[1]d];
    int i, s = 0, t = 0;
    for (i = 0; i < %[1]d; i++) b[i] = i * %[2]d;
    for (i = 0; i < %[1]d; i++) a[i] = b[i] * 2 + %[2]d;
    for (i = 1; i < %[1]d; i++) a[i] = a[i-1] + b[i];
    for (i = 0; i < %[1]d; i++) s += a[i];
    for (i = 0; i < %[1]d; i++) { t = b[i] + %[2]d; a[i] = t * t; }
    return s + t;
}
`, size, i+1)
	}
	return files
}

// TestAnalyzeFilesDeterministicAcrossWorkers is the race-clean determinism
// check: the same ≥8-file corpus analyzed with Workers=1 and Workers=8
// must produce identical reports in identical order.
func TestAnalyzeFilesDeterministicAcrossWorkers(t *testing.T) {
	files := corpusFiles(10)
	serial, err := engineWith(t, EngineConfig{Workers: 1}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := engineWith(t, EngineConfig{Workers: 8}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(files) || len(concurrent) != len(files) {
		t.Fatalf("files analyzed: serial=%d concurrent=%d, want %d", len(serial), len(concurrent), len(files))
	}
	for name := range files {
		if !reflect.DeepEqual(serial[name], concurrent[name]) {
			t.Errorf("%s: reports differ between Workers=1 and Workers=8\nserial: %+v\nconcurrent: %+v",
				name, serial[name], concurrent[name])
		}
	}
}

// TestAnalyzeFilesMatchesAnalyzeSource pins the batched API to the
// per-file one, AnalyzeSourceContext.
func TestAnalyzeFilesMatchesAnalyzeSource(t *testing.T) {
	e := engineWith(t, EngineConfig{Workers: 4})
	files := corpusFiles(4)
	batch, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		single := analyze(t, e, src)
		if !reflect.DeepEqual(batch[name], single) {
			t.Errorf("%s: AnalyzeFiles disagrees with AnalyzeSourceContext", name)
		}
	}
}

func TestAnalyzeFilesSurfacesParseErrors(t *testing.T) {
	e := engineWith(t, EngineConfig{Workers: 4})
	files := corpusFiles(3)
	files["broken.c"] = "int main() { for (i=0 i<10; i++) ; }"
	out, err := e.AnalyzeFiles(files)
	if err == nil {
		t.Fatal("parse error should surface")
	}
	if !strings.Contains(err.Error(), "broken.c") {
		t.Errorf("error should name the failing file: %v", err)
	}
	if _, ok := out["broken.c"]; ok {
		t.Error("unparsable file should be omitted from results")
	}
	if len(out) != 3 {
		t.Errorf("parsable files analyzed = %d, want 3", len(out))
	}
	for name := range out {
		if len(out[name]) == 0 {
			t.Errorf("%s: no loops reported", name)
		}
	}
}

// TestAnalyzeFilesCachedByteIdentical is the acceptance check for the
// analysis cache: with caching on, both the cold (miss-filling) pass and
// the warm (all-hits) pass must be byte-for-byte identical to the
// uncached engine's output.
func TestAnalyzeFilesCachedByteIdentical(t *testing.T) {
	files := corpusFiles(6)
	plain, err := engineWith(t, EngineConfig{Workers: 4}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	e := engineWith(t, EngineConfig{Workers: 4, CacheSize: 1024})
	cold, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Error("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Error("warm cached run differs from uncached run")
	}

	totalLoops := 0
	for name := range plain {
		totalLoops += len(plain[name])
	}
	st, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache should be enabled")
	}
	if st.Misses != uint64(totalLoops) {
		t.Errorf("misses = %d, want %d (one per loop on the cold pass)", st.Misses, totalLoops)
	}
	if st.Hits != uint64(totalLoops) {
		t.Errorf("hits = %d, want %d (every loop served from cache when warm)", st.Hits, totalLoops)
	}
	if st.Entries != totalLoops {
		t.Errorf("entries = %d, want %d", st.Entries, totalLoops)
	}
}

// TestAnalyzeSourceCachedMatchesAndSurvivesMutation checks the per-file
// API against the cache and that cached entries are detached from
// returned reports: mutating a result must not poison later hits.
func TestAnalyzeSourceCachedMatchesAndSurvivesMutation(t *testing.T) {
	src := corpusFiles(1)["file_00.c"]
	plain := analyze(t, engineWith(t, EngineConfig{Workers: 2}), src)
	e := engineWith(t, EngineConfig{Workers: 2, CacheSize: 256})
	first := analyze(t, e, src)
	if !reflect.DeepEqual(plain, first) {
		t.Error("cached AnalyzeSourceContext differs from uncached")
	}
	// Vandalize the returned reports, then re-analyze from cache.
	for i := range first {
		first[i].Suggestion = "tampered"
		for j := range first[i].Tools {
			first[i].Tools[j].Reason = "tampered"
		}
		if len(first[i].Categories) > 0 {
			first[i].Categories[0] = "tampered"
		}
	}
	again := analyze(t, e, src)
	if !reflect.DeepEqual(plain, again) {
		t.Error("cache entries were corrupted by caller mutation")
	}
}

// TestCacheKeySeparatesIdenticalLoopsOnOneLine is the regression test
// for keying loops by byte offset rather than line: two textually
// identical sibling loops on one source line are distinct program points
// (the first mutates state the second reads), so they must not share a
// cache entry, and the cached run must equal the uncached run exactly.
func TestCacheKeySeparatesIdenticalLoopsOnOneLine(t *testing.T) {
	src := `
int main() {
    int a[16];
    int i, s = 0;
    for (i = 0; i < 16; i++) a[i] = 1;
    for (i = 0; i < 16; i++) s += a[i]; for (i = 0; i < 16; i++) s += a[i];
    return s;
}
`
	plain := analyze(t, engineWith(t, EngineConfig{Workers: 1}), src)
	e := engineWith(t, EngineConfig{Workers: 1, CacheSize: 256})
	cold := analyze(t, e, src)
	warm := analyze(t, e, src)
	if !reflect.DeepEqual(plain, cold) || !reflect.DeepEqual(plain, warm) {
		t.Error("cached analysis of same-line identical loops differs from uncached")
	}
	st, _ := e.CacheStats()
	if want := uint64(len(plain)); st.Misses != want {
		t.Errorf("misses = %d, want %d (every loop is a distinct program point, none may share keys)", st.Misses, want)
	}
}

// TestAnalyzeFilesCachedDeterministicAcrossWorkers runs the cached engine
// under worker-pool concurrency — with -race this is the cache's
// integration-level concurrency check.
func TestAnalyzeFilesCachedDeterministicAcrossWorkers(t *testing.T) {
	files := corpusFiles(8)
	serial, err := engineWith(t, EngineConfig{Workers: 1}).AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	e := engineWith(t, EngineConfig{Workers: 8, CacheSize: 2048})
	for pass := 0; pass < 3; pass++ {
		got, err := e.AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("pass %d: cached concurrent run differs from serial uncached run", pass)
		}
	}
}

// corpusLoops is the number of loops corpusFiles writes into each file.
const corpusLoops = 5

// analyzePerGraph analyzes files on a copy of the shared test engine whose
// worker pool is as wide as the corpus has loops: analyzeJobs' chunk,
// ⌈misses/workers⌉, is then 1, so every forward pass scores one graph.
// It is the reference the batched runs are checked against.
func analyzePerGraph(t *testing.T, files map[string]string) map[string][]LoopReport {
	t.Helper()
	e := engineWith(t, EngineConfig{Workers: len(files) * corpusLoops})
	out, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, rs := range out {
		loops += len(rs)
	}
	if loops > e.Workers() {
		t.Fatalf("reference engine has %d workers for %d loops: its forward passes batch several graphs", e.Workers(), loops)
	}
	return out
}

// TestAnalyzeFilesBatchedByteIdentical is the acceptance check for
// batched inference: the size-bucketed PredictBatch pipeline must produce
// byte-identical reports to one forward pass per graph. Over these 40
// loops, 1 and 2 workers score chunks of 16, 16 and 8 graphs (full
// DefaultBatchSize batches and a partial one), 3 workers chunks of 14, 14
// and 12, and 8 workers chunks of 5; the node-count sort puts loops of
// several files into one chunk.
func TestAnalyzeFilesBatchedByteIdentical(t *testing.T) {
	files := corpusFiles(8)
	perGraph := analyzePerGraph(t, files)
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := engineWith(t, EngineConfig{Workers: workers}).AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(perGraph, got) {
			t.Errorf("Workers=%d: batched reports differ from one graph per forward pass", workers)
		}
	}
}

// TestAnalyzeSourceBatchedMatchesUnbatched pins the single-file API to the
// same invariant.
func TestAnalyzeSourceBatchedMatchesUnbatched(t *testing.T) {
	src := corpusFiles(1)["file_00.c"]
	// One worker per loop: one graph per forward pass.
	unbatched := analyze(t, engineWith(t, EngineConfig{Workers: corpusLoops}), src)
	if len(unbatched) != corpusLoops {
		t.Fatalf("loops = %d, want %d", len(unbatched), corpusLoops)
	}
	batched := analyze(t, engineWith(t, EngineConfig{Workers: 2}), src)
	if !reflect.DeepEqual(unbatched, batched) {
		t.Error("batched AnalyzeSourceContext differs from one graph per forward pass")
	}
}

// TestAnalyzeFilesBatchedCachedByteIdentical composes the two hot-path
// optimizations: with both the analysis cache and batching on, the cold
// pass (misses flow through PredictBatch) and the warm pass (all hits,
// no inference at all) must match the uncached one-graph-per-pass engine
// byte for byte, and the cache counters must show one Get per loop and
// one Put per miss.
func TestAnalyzeFilesBatchedCachedByteIdentical(t *testing.T) {
	files := corpusFiles(6)
	plain := analyzePerGraph(t, files)
	e := engineWith(t, EngineConfig{Workers: 4, CacheSize: 1024})
	cold, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Error("cold batched+cached run differs from one-graph-per-pass uncached run")
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Error("warm batched+cached run differs from one-graph-per-pass uncached run")
	}
	totalLoops := 0
	for name := range plain {
		totalLoops += len(plain[name])
	}
	st, ok := e.CacheStats()
	if !ok {
		t.Fatal("cache should be enabled")
	}
	if st.Misses != uint64(totalLoops) || st.Hits != uint64(totalLoops) {
		t.Errorf("cache counters misses=%d hits=%d, want %d each", st.Misses, st.Hits, totalLoops)
	}
	if st.Entries != totalLoops {
		t.Errorf("entries = %d, want %d (one Put per miss)", st.Entries, totalLoops)
	}
}

// TestAnalyzeFilesBatchedDeterministicAcrossWorkers races the batched
// pipeline (under -race in CI): batches dispatched over 8 workers must
// reproduce the one-graph-per-pass output exactly, pass after pass.
func TestAnalyzeFilesBatchedDeterministicAcrossWorkers(t *testing.T) {
	files := corpusFiles(8)
	perGraph := analyzePerGraph(t, files)
	e := engineWith(t, EngineConfig{Workers: 8})
	for pass := 0; pass < 2; pass++ {
		got, err := e.AnalyzeFiles(files)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(perGraph, got) {
			t.Errorf("pass %d: batched concurrent run differs from one graph per forward pass", pass)
		}
	}
}

func TestAnalyzeFilesEmptyInput(t *testing.T) {
	out, err := engineWith(t, EngineConfig{Workers: 4}).AnalyzeFiles(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("expected empty result, got %d entries", len(out))
	}
}
