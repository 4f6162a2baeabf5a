// Package graph2par is the public API of the Graph2Par reproduction
// (Chen et al., "Learning to Parallelize with OpenMP by Augmented
// Heterogeneous AST Representation", MLSys 2023).
//
// The Engine wraps the whole pipeline: it parses C source, extracts loops,
// builds the heterogeneous augmented AST of each loop, classifies
// parallelism with a trained Heterogeneous Graph Transformer, predicts the
// applicable OpenMP pragma categories, and cross-checks against the three
// reimplemented algorithm-based tools (autoPar, PLUTO, DiscoPoP).
//
// A quick start:
//
//	engine, err := graph2par.NewEngine(graph2par.EngineConfig{})
//	reports, err := engine.AnalyzeSourceContext(ctx, src)
//	for _, r := range reports {
//	    fmt.Println(r.Line, r.Parallel, r.Suggestion)
//	}
package graph2par

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"graph2par/internal/auggraph"
	"graph2par/internal/cache"
	"graph2par/internal/cast"
	"graph2par/internal/dataset"
	"graph2par/internal/frontend"
	"graph2par/internal/hgt"
	"graph2par/internal/parallel"
	"graph2par/internal/pragma"
	"graph2par/internal/rewrite"
	"graph2par/internal/tools"
	"graph2par/internal/tools/autopar"
	"graph2par/internal/tools/discopop"
	"graph2par/internal/tools/pluto"
	"graph2par/internal/train"
	"graph2par/internal/verify"
)

// EngineConfig controls engine construction. It is the only way to set
// an engine's stages, worker count and cache: an Engine keeps them for
// its lifetime, so the fingerprint in every cache key names exactly the
// stages whose output a cached report carries.
type EngineConfig struct {
	// ModelPath loads a trained checkpoint instead of training.
	ModelPath string
	// TrainScale is the OMP_Serial scale factor used when training from
	// scratch (default 0.02, a few hundred loops).
	TrainScale float64
	// Seed makes from-scratch training reproducible.
	Seed uint64
	// Epochs for from-scratch training (default 6).
	Epochs int
	// Quiet suppresses the training progress line.
	Quiet bool
	// Workers bounds the worker pool used by the Analyze* methods and the
	// graph-preparation sweep of from-scratch training. Values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize enables the content-addressed analysis cache: up to this
	// many loop reports are kept in a sharded LRU keyed by the loop's
	// normalized source, its translation-unit content and the engine
	// fingerprint (model, graph options and enabled stages), so
	// re-analyzing identical input skips the aug-AST build, HGT inference
	// and tool cross-checks entirely while staying byte-for-byte identical
	// to an uncached run. 0 (the zero value) disables caching.
	CacheSize int
	// Verify enables the post-inference static verification stage: every
	// suggested pragma is re-checked by internal/verify's flow-sensitive
	// analyses and the verdict (safe / unknown / unsafe, with reasons and
	// positions) is attached to the report — and cached alongside it, since
	// the content-addressed key fingerprints every verdict input and the
	// stage itself.
	Verify bool
	// Rewrite enables the source-to-source output stage: every loop the
	// model predicts parallel gets a rewrite plan — derived clause lists
	// gated through the static verifier and validated dynamically (see
	// internal/rewrite) — attached to its report, and Engine.RewriteSource
	// splices the accepted plans into transformed C. Independent of Verify:
	// the rewriter always runs the full check suite on its own derived
	// pragmas.
	Rewrite bool
}

// DefaultBatchSize bounds how many loop graphs share one HGT forward
// pass: Analyze* methods group cache-missing loops into size-bucketed
// batches of at most this many graphs and score each batch with
// hgt.Model.PredictBatch, which changes no output bit. It is large enough
// to amortize per-graph op dispatch and small enough that a typical
// corpus still splits into more batches than workers.
const DefaultBatchSize = 16

// Engine is a ready-to-use Graph2Par analyzer.
//
// Once constructed, an Engine is safe for concurrent use: analysis only
// reads the trained model, the vocabulary and the (stateless) comparator
// tools. See hgt.Model.Predict and auggraph.Vocab.Encode for the
// underlying guarantees. An Engine holds its counters and scratch pool by
// value and must not be copied; go vet's copylocks check rejects a copy.
type Engine struct {
	model   *hgt.Model
	vocab   *auggraph.Vocab
	gopts   auggraph.Options
	tools   []tools.Tool
	workers int

	// cache is the optional content-addressed report cache (nil when
	// disabled); fingerprint identifies the loaded weights + vocabulary +
	// graph options + enabled stages and is folded into every cache key,
	// so a cache can never serve results computed by a different model or
	// stage set.
	cache       *cache.Cache[LoopReport]
	fingerprint string

	// fill, when set, is consulted on a local cache miss before the loop
	// is recomputed: the peer-fill tier (internal/peercache) plugs in here
	// so a miss on this replica can be served from the owning replica's
	// cache. A successful fill is stored locally and is required to be
	// byte-identical to a local recompute (the content-addressed key
	// covers every analysis input, including the fingerprint, so only a
	// replica with the same model and stages can ever answer). Nil when no
	// peer tier is configured; only consulted when the cache is enabled.
	fill CacheFiller

	// warmHook, when set, is told about every locally computed report the
	// moment it is cached: the peer tier's push-warming
	// (internal/peercache Client.Warm) plugs in here to replicate the
	// entry to the key's other rendezvous owners, so an owner restart no
	// longer loses its shard and the fleet converges without waiting for
	// pull-side misses. Nil when warming is not configured; only invoked
	// while the cache is enabled.
	warmHook CacheWarmer

	// verify gates the static pragma-safety stage; vstats counts issued
	// verdicts per level.
	verify bool
	vstats verifyStats

	// rewrite gates the source-to-source output stage; rstats counts
	// issued rewrite plans per status.
	rewrite bool
	rstats  rewriteStats

	// fe recycles per-worker front-end scratches (token buffers, AST
	// slabs, graph and encoding storage, symbol tables) across Analyze*
	// calls: each call checks out one scratch per parse/analysis worker
	// it actually uses, builds every AST and aug-AST of the request in
	// them, and returns them — reset — when the last report string has
	// been assembled. Outputs never reference scratch memory, so
	// recycling cannot change a byte.
	fe frontend.Pool
}

// ToolVerdict is one comparator tool's opinion on a loop.
type ToolVerdict struct {
	Tool        string
	Processable bool
	Parallel    bool
	Reason      string
}

// LoopReport is the analysis result for one loop.
type LoopReport struct {
	// Line is the loop's 1-based source line.
	Line int
	// Source is the loop's normalized source text.
	Source string
	// Parallel is the model's parallelism prediction.
	Parallel bool
	// Confidence is the softmax probability of the predicted class.
	Confidence float64
	// Categories are the pragma categories Suggestion carries (a
	// structural classification; the per-category heads of Table 5 are
	// trained separately by the experiment harness).
	Categories []pragma.Category
	// Suggestion is a ready-to-paste pragma line: the directive
	// rewrite.DeriveClauses derives for a predicted-parallel for-loop (""
	// otherwise; a while loop takes no worksharing directive).
	Suggestion string
	// Tools holds the comparator verdicts.
	Tools []ToolVerdict
	// GraphStats summarizes the loop's aug-AST.
	GraphStats string
	// DOT is the Graphviz rendering of the loop's aug-AST.
	DOT string
	// Verdict is the static verifier's ruling on Suggestion, or on the
	// bare loop when there is none (nil when verification is disabled or
	// the loop is not predicted parallel).
	Verdict *verify.Verdict
	// Rewrite is the source-to-source plan for this loop (nil when the
	// rewrite stage is disabled or the loop is not predicted parallel).
	// Its status reflects the per-loop gates; Engine.RewriteSource may
	// still demote it at splice time (nesting, byte-level checks).
	Rewrite *rewrite.LoopPlan
}

// NewEngine builds an engine: either loading ModelPath or training a fresh
// model on a generated OMP_Serial corpus.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	e := &Engine{
		tools:   []tools.Tool{autopar.New(), pluto.New(), discopop.New()},
		workers: parallel.Workers(cfg.Workers),
		verify:  cfg.Verify,
		rewrite: cfg.Rewrite,
	}
	if cfg.ModelPath != "" {
		var err error
		if e.model, e.vocab, e.gopts, err = train.LoadCheckpoint(cfg.ModelPath); err != nil {
			return nil, fmt.Errorf("graph2par: loading model: %w", err)
		}
	} else {
		e.model, e.vocab, e.gopts = trainModel(cfg)
	}
	// The fingerprint hashes every weight, so only an engine with a cache
	// to key pays for it.
	if cfg.CacheSize > 0 {
		e.cache = cache.New[LoopReport](cfg.CacheSize)
		e.fingerprint = e.computeFingerprint()
	}
	return e, nil
}

// trainModel trains the from-scratch model NewEngine uses without a
// ModelPath.
func trainModel(cfg EngineConfig) (*hgt.Model, *auggraph.Vocab, auggraph.Options) {
	if cfg.TrainScale <= 0 {
		cfg.TrainScale = 0.02
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1234
	}
	if !cfg.Quiet {
		fmt.Printf("graph2par: training on OMP_Serial (scale %.3f)...\n", cfg.TrainScale)
	}
	corpus := dataset.Generate(dataset.Config{Scale: cfg.TrainScale, Seed: cfg.Seed})
	opts := train.DefaultOptions()
	opts.Epochs = cfg.Epochs
	opts.Seed = cfg.Seed
	set := train.PrepareGraphsN(cfg.Workers, corpus.Samples, opts.Graph, nil, train.ParallelLabel)
	return train.TrainHGT(set, opts), set.Vocab, opts.Graph
}

// Save writes the engine's model to a checkpoint file.
func (e *Engine) Save(path string) error {
	return train.SaveCheckpoint(path, e.model, e.vocab, e.gopts)
}

// Workers returns the analysis worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// CacheStats returns a snapshot of the analysis-cache counters; ok is
// false when caching is disabled.
func (e *Engine) CacheStats() (st cache.Stats, ok bool) {
	if e.cache == nil {
		return cache.Stats{}, false
	}
	return e.cache.Stats(), true
}

// CacheFiller is the peer-fill hook: given a loop's content-addressed
// cache key it either produces the finished report (ok true) or reports
// a miss, in which case the engine recomputes locally. Implementations
// must be safe for concurrent use and should bound their own latency —
// the analysis pipeline blocks on them per cache-missing loop.
type CacheFiller func(key string) (LoopReport, bool)

// SetCacheFiller installs (or, with nil, removes) the peer-fill hook
// consulted on local cache misses. It must not be called concurrently
// with Analyze* methods. The hook is only consulted while the cache is
// enabled: a fill is immediately stored locally, so it is pointless —
// and therefore skipped — without somewhere to put it.
func (e *Engine) SetCacheFiller(f CacheFiller) { e.fill = f }

// CacheWarmer is the push-warming hook: it receives every locally
// computed report together with its content-addressed cache key, right
// after the report is stored in this replica's cache. Implementations
// must be safe for concurrent use and must not block — the analysis
// pipeline calls them inline from its workers (internal/peercache
// enqueues onto a bounded queue and pushes from its own goroutine).
// The report is a detached copy the hook owns.
type CacheWarmer func(key string, r LoopReport)

// SetCacheWarmer installs (or, with nil, removes) the push-warming hook
// invoked after each locally computed report is cached. It must not be
// called concurrently with Analyze* methods. Like the fill hook it is
// only consulted while the cache is enabled: without a cache there are
// no keys to replicate.
func (e *Engine) SetCacheWarmer(f CacheWarmer) { e.warmHook = f }

// InstallCached stores a peer-pushed report under its content-addressed
// key — the write side of the POST /v1/cache/<key> warming protocol.
// The caller (internal/serve) is responsible for authenticating that
// the pusher serves the same fingerprint; the key itself embeds the
// fingerprint too, so a mis-pushed entry could never be served to a
// lookup by a different model or stage set, only waste a cache slot. Returns false when
// caching is disabled.
func (e *Engine) InstallCached(key string, r LoopReport) bool {
	if e.cache == nil {
		return false
	}
	e.cache.Put(key, cloneReport(r))
	return true
}

// PeekCached returns the cached report for a raw content-addressed key
// without touching the hit/miss counters or the LRU order — the lookup
// the /v1/cache/<key> peer protocol serves, which must not distort the
// replica's own cache telemetry. ok is false when caching is disabled or
// the key is absent.
func (e *Engine) PeekCached(key string) (LoopReport, bool) {
	if e.cache == nil {
		return LoopReport{}, false
	}
	r, ok := e.cache.Peek(key)
	if !ok {
		return LoopReport{}, false
	}
	return cloneReport(r), true
}

// Fingerprint returns the fingerprint folded into every cache key: a
// hash of the model, its graph options and the enabled stages ("" when
// caching is disabled). Replicas exchange it at peer-fill setup to
// assert they serve the same model with the same stages.
func (e *Engine) Fingerprint() string { return e.fingerprint }

// verifyStats tallies issued verdicts per lattice level. Counters are
// atomic because finishLoop runs concurrently across the worker pool.
type verifyStats struct {
	safe    atomic.Uint64
	unknown atomic.Uint64
	unsafe  atomic.Uint64
}

func (s *verifyStats) count(l verify.Level) {
	switch l {
	case verify.Safe:
		s.safe.Add(1)
	case verify.Unknown:
		s.unknown.Add(1)
	case verify.Unsafe:
		s.unsafe.Add(1)
	}
}

// VerifyStats is a snapshot of the verdicts issued so far, keyed by level
// (the JSON form is /v1/stats' verify section).
type VerifyStats struct {
	Safe    uint64 `json:"safe"`
	Unknown uint64 `json:"unknown"`
	Unsafe  uint64 `json:"unsafe"`
}

// rewriteStats tallies issued rewrite plans per status. Counters are
// atomic because finishLoop runs concurrently across the worker pool.
type rewriteStats struct {
	rewritten  atomic.Uint64
	atomic     atomic.Uint64
	suggestion atomic.Uint64
}

func (s *rewriteStats) count(st rewrite.Status) {
	switch st {
	case rewrite.StatusRewritten:
		s.rewritten.Add(1)
	case rewrite.StatusAtomic:
		s.atomic.Add(1)
	case rewrite.StatusSuggestion:
		s.suggestion.Add(1)
	}
}

// RewriteStats is a snapshot of the rewrite plans issued so far, keyed by
// the status PlanLoop assigned (splice-time demotions are not re-counted;
// the JSON form is /v1/stats' rewrite section).
type RewriteStats struct {
	Rewritten  uint64 `json:"rewritten"`
	Atomic     uint64 `json:"atomic"`
	Suggestion uint64 `json:"suggestion"`
}

// RewriteEnabled reports whether loops get source-to-source rewrite plans.
func (e *Engine) RewriteEnabled() bool { return e.rewrite }

// RewriteStats returns the issued-plan counters; ok is false when the
// rewrite stage is disabled.
func (e *Engine) RewriteStats() (st RewriteStats, ok bool) {
	if !e.rewrite {
		return RewriteStats{}, false
	}
	return RewriteStats{
		Rewritten:  e.rstats.rewritten.Load(),
		Atomic:     e.rstats.atomic.Load(),
		Suggestion: e.rstats.suggestion.Load(),
	}, true
}

// VerifyEnabled reports whether suggestions are statically verified.
func (e *Engine) VerifyEnabled() bool { return e.verify }

// VerifyStats returns the issued-verdict counters; ok is false when the
// verification stage is disabled.
func (e *Engine) VerifyStats() (st VerifyStats, ok bool) {
	if !e.verify {
		return VerifyStats{}, false
	}
	return VerifyStats{
		Safe:    e.vstats.safe.Load(),
		Unknown: e.vstats.unknown.Load(),
		Unsafe:  e.vstats.unsafe.Load(),
	}, true
}

// computeFingerprint hashes everything a report depends on besides the
// input source: the model's hyperparameters, every weight matrix, the
// vocabulary tables and the graph options, then one token per enabled
// stage. Folding it into each cache key makes invalidation structural —
// a different (retrained, reloaded, differently configured) model, or
// the same model with a different stage set, can never hit entries of
// another. An engine with no stage enabled hashes the model alone.
func (e *Engine) computeFingerprint() string {
	h := sha256.New()
	m, gopts := e.model, e.gopts
	fmt.Fprintf(h, "cfg:%+v|graph:%t%t%t%t|", m.Cfg, gopts.CFG, gopts.Lexical, gopts.Reverse, gopts.Normalize)
	buf := make([]byte, 8)
	for _, p := range m.Params.All() {
		fmt.Fprintf(h, "%s:%dx%d:", p.Name, p.W.Rows, p.W.Cols)
		for _, w := range p.W.Data {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(w))
			h.Write(buf)
		}
	}
	for _, table := range [][]string{e.vocab.KindNames(), e.vocab.AttrNames(), e.vocab.TypeNames()} {
		for _, s := range table {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	if e.verify {
		h.Write([]byte("stage:verify|"))
	}
	if e.rewrite {
		h.Write([]byte("stage:rewrite|"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loopCacheKey derives the content-addressed key for one loop: engine
// fingerprint (which covers graph options and stages) + translation-unit
// content + source position + normalized loop source. The byte offset
// (not just the line) disambiguates textually identical loops whose
// dynamic tool verdicts could differ with program point — including two
// identical sibling loops sharing one source line.
func (e *Engine) loopCacheKey(loop cast.Stmt, fileKey string) string {
	h := sha256.New()
	pos := loop.Pos()
	fmt.Fprintf(h, "%s\x00%s\x00%d:%d\x00%s", e.fingerprint, fileKey, pos.Offset, pos.Line, cast.Print(loop))
	return hex.EncodeToString(h.Sum(nil))
}

// cloneReport returns a copy whose slices are detached from r, so cached
// reports are immune to caller mutation.
func cloneReport(r LoopReport) LoopReport {
	if r.Categories != nil {
		r.Categories = append([]pragma.Category(nil), r.Categories...)
	}
	if r.Tools != nil {
		r.Tools = append([]ToolVerdict(nil), r.Tools...)
	}
	if r.Verdict != nil {
		v := *r.Verdict
		if v.Findings != nil {
			v.Findings = append([]verify.Finding(nil), v.Findings...)
		}
		r.Verdict = &v
	}
	r.Rewrite = r.Rewrite.Clone()
	return r
}

// scratchSet is one Analyze* call's demand-driven scratch checkout: it
// grows to the number of workers a stage actually uses (a one-file
// request on a 32-core server should pin one bundle, not 32) and returns
// everything to the pool when the call finishes.
type scratchSet struct {
	pool *frontend.Pool
	scrs []*frontend.Scratch
}

// ensure grows the checkout to at least n scratches and returns them.
func (s *scratchSet) ensure(n int) []*frontend.Scratch {
	for len(s.scrs) < n {
		s.scrs = append(s.scrs, s.pool.Get())
	}
	return s.scrs
}

// release returns every checked-out scratch. Everything built through
// them becomes invalid.
func (s *scratchSet) release() {
	s.pool.PutAll(s.scrs)
	s.scrs = nil
}

// stageWorkers bounds a fan-out stage's worker count by its item count —
// the same clamp ForEachWorker applies — so ensure() checks out exactly
// the scratches the stage can touch.
func (e *Engine) stageWorkers(items int) int {
	w := e.workers
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AnalyzeSourceContext parses a C translation unit and reports on every
// loop. Loops are analyzed concurrently over the engine's worker pool;
// the returned reports are sorted by source line regardless of worker
// count, so results are identical to a serial run.
//
// Cancellation is cooperative: the pipeline checks ctx between stages and
// between loops, so a caller whose deadline has passed (or whose client
// hung up) stops burning CPU at the next stage boundary instead of
// completing the whole analysis. On cancellation it returns ctx's error
// and no reports; an individual forward pass or tool run is never
// interrupted mid-flight, so partial results already computed still land
// in the cache for the next caller.
func (e *Engine) AnalyzeSourceContext(ctx context.Context, src string) ([]LoopReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ss := &scratchSet{pool: &e.fe}
	defer ss.release()
	file, err := ss.ensure(1)[0].Parse.ParseFile(src)
	if err != nil {
		return nil, err
	}
	reports := e.analyzeJobs(ctx, e.fileJobs(file, src), ss)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Line < reports[j].Line })
	return reports, nil
}

// RewriteResult is one translation unit's source-to-source rewrite: the
// transformed source (equal to the input when nothing was accepted) and
// the full per-loop reports whose Rewrite plans carry the final,
// splice-checked statuses.
type RewriteResult struct {
	Output  string
	Changed bool
	Reports []LoopReport
}

// RewriteSource analyzes a translation unit with the model in the loop —
// only loops predicted parallel get rewrite plans — and splices the
// accepted plans into the source. Requires the rewrite stage (see
// EngineConfig.Rewrite).
func (e *Engine) RewriteSource(src string) (*RewriteResult, error) {
	return e.RewriteSourceContext(context.Background(), src)
}

// RewriteSourceContext is RewriteSource with cooperative cancellation
// (see AnalyzeSourceContext for the semantics).
func (e *Engine) RewriteSourceContext(ctx context.Context, src string) (*RewriteResult, error) {
	if !e.rewrite {
		return nil, fmt.Errorf("graph2par: rewrite stage is disabled")
	}
	reports, err := e.AnalyzeSourceContext(ctx, src)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return SpliceRewrites(src, reports)
}

// SpliceRewrites splices the rewrite plans of one translation unit's
// reports, as an Analyze* call returned them, into its source: the last
// step of RewriteSource, for callers that already hold the reports.
// Splice-time demotions update the plans in place.
func SpliceRewrites(src string, reports []LoopReport) (*RewriteResult, error) {
	var plans []*rewrite.LoopPlan
	for i := range reports {
		if reports[i].Rewrite != nil {
			plans = append(plans, reports[i].Rewrite)
		}
	}
	out, changed, err := rewrite.Apply(src, plans)
	if err != nil {
		return nil, err
	}
	return &RewriteResult{Output: out, Changed: changed, Reports: reports}, nil
}

// fileJobs lists a parsed file's loops as analysis jobs sharing one
// defined-function map and, with the cache on, one hash of the file's
// source for their keys: the front half of AnalyzeSourceContext and
// AnalyzeFilesContext.
func (e *Engine) fileJobs(file *cast.File, src string) []loopJob {
	fileKey := ""
	if e.cache != nil {
		sum := sha256.Sum256([]byte(src))
		fileKey = hex.EncodeToString(sum[:])
	}
	funcs := file.DefinedFuncs()
	loops := file.Loops()
	jobs := make([]loopJob, len(loops))
	for i, l := range loops {
		jobs[i] = loopJob{loop: l.Loop, file: file, funcs: funcs, fileKey: fileKey}
	}
	return jobs
}

// loopJob bundles one loop with the file context its analysis needs.
type loopJob struct {
	loop    cast.Stmt
	file    *cast.File
	funcs   map[string]*cast.FuncDecl
	fileKey string
}

// analyzeJobs analyzes jobs[i] into slot i of the result, spreading work
// over the engine's worker pool in three stages: every cache-missing
// loop's aug-AST is built concurrently, the misses are grouped into
// size-bucketed batches of at most DefaultBatchSize graphs and each batch
// is scored in one PredictBatch forward pass, and the remaining per-loop
// work (pragma synthesis, tool cross-checks, cache fill) fans back out.
// The batching never shows in a report — PredictBatch is bit-identical to
// Predict for any batch composition — and the cache sees one Get per loop
// and one Put per miss.
//
// Cancellation is cooperative: ctx is checked at every stage boundary and
// between per-loop work items, never inside a forward pass. Once ctx is
// done the remaining work is skipped; the caller discards the (partial)
// result after its own ctx check, so a half-filled slice never escapes.
func (e *Engine) analyzeJobs(ctx context.Context, jobs []loopJob, ss *scratchSet) []LoopReport {
	reports := make([]LoopReport, len(jobs))
	if len(jobs) == 0 {
		return reports
	}
	scrs := ss.ensure(e.stageWorkers(len(jobs)))

	// Stage A: cache probe + aug-AST construction, one worker per loop.
	// Graphs and encodings land in the worker's scratch and stay valid
	// through stages B and C (the caller releases the scratches only after
	// every report is assembled).
	type prepared struct {
		key string
		g   *auggraph.Graph
		enc *auggraph.Encoded
		hit bool
	}
	preps := make([]prepared, len(jobs))
	parallel.ForEachWorker(e.workers, len(jobs), func(w, i int) {
		if ctx.Err() != nil {
			return
		}
		if e.cache != nil {
			preps[i].key = e.loopCacheKey(jobs[i].loop, jobs[i].fileKey)
			if r, ok := e.cache.Get(preps[i].key); ok {
				reports[i] = cloneReport(r)
				preps[i].hit = true
				return
			}
			if r, ok := e.peerFill(preps[i].key); ok {
				reports[i] = r
				preps[i].hit = true
				return
			}
		}
		preps[i].g, preps[i].enc = e.buildGraph(jobs[i], scrs[w])
	})
	if ctx.Err() != nil {
		return reports
	}

	// Stage B: size-bucketed batched inference. Sorting misses by node
	// count groups similar-sized graphs so each forward pass does evenly
	// sized row blocks; the stable sort keeps the bucketing deterministic.
	var miss []int
	for i := range preps {
		if !preps[i].hit {
			miss = append(miss, i)
		}
	}
	sort.SliceStable(miss, func(a, b int) bool {
		return len(preps[miss[a]].enc.KindIDs) < len(preps[miss[b]].enc.KindIDs)
	})
	preds := make([]int, len(jobs))
	probs := make([][]float64, len(jobs))
	// Chunk bound: at most DefaultBatchSize graphs per forward pass, but
	// never so few batches that workers idle — a small workload (one
	// file's worth of loops) still spreads across the pool instead of
	// serializing into a single pass. Chunking never affects output:
	// PredictBatch is bit-identical per graph for any batch composition.
	chunk := (len(miss) + e.workers - 1) / e.workers
	if chunk > DefaultBatchSize {
		chunk = DefaultBatchSize
	}
	if chunk < 1 {
		chunk = 1
	}
	numBatches := (len(miss) + chunk - 1) / chunk
	parallel.ForEach(e.workers, numBatches, func(bi int) {
		if ctx.Err() != nil {
			return
		}
		lo := bi * chunk
		hi := lo + chunk
		if hi > len(miss) {
			hi = len(miss)
		}
		idx := miss[lo:hi]
		encs := make([]*auggraph.Encoded, len(idx))
		for k, i := range idx {
			encs[k] = preps[i].enc
		}
		ps, prb := e.model.PredictBatch(encs)
		for k, i := range idx {
			preds[i], probs[i] = ps[k], prb[k]
		}
	})
	if ctx.Err() != nil {
		return reports
	}

	// Stage C: per-loop report assembly, tool cross-checks and cache fill.
	parallel.ForEach(e.workers, len(miss), func(k int) {
		if ctx.Err() != nil {
			return
		}
		i := miss[k]
		reports[i] = e.finishLoop(jobs[i], preps[i].g, preps[i].key, preds[i], probs[i])
	})
	return reports
}

// peerFill consults the peer-fill hook for one cache-missing key and, on
// success, stores the fetched report locally so the next identical loop
// is a plain local hit. The returned report is detached from the cached
// copy the same way a Get hit is.
func (e *Engine) peerFill(key string) (LoopReport, bool) {
	if e.fill == nil {
		return LoopReport{}, false
	}
	r, ok := e.fill(key)
	if !ok {
		return LoopReport{}, false
	}
	e.cache.Put(key, cloneReport(r))
	return r, true
}

// AnalyzeFiles analyzes a whole corpus of C sources, keyed by file name,
// in one batched pass: parsing, aug-AST construction, HGT inference and
// the tool cross-checks are pipelined across files and loops over the
// engine's worker pool. The result maps each file name to its line-sorted
// reports — byte-for-byte identical to calling AnalyzeSourceContext per
// file.
//
// Files that fail to parse are omitted from the result; their errors are
// combined (in file-name order, so the message is deterministic) into the
// returned error alongside the successful results.
func (e *Engine) AnalyzeFiles(sources map[string]string) (map[string][]LoopReport, error) {
	return e.AnalyzeFilesContext(context.Background(), sources)
}

// AnalyzeFilesContext is AnalyzeFiles with cooperative cancellation (see
// AnalyzeSourceContext for the semantics): on cancellation it returns
// ctx's error and no results.
func (e *Engine) AnalyzeFilesContext(ctx context.Context, sources map[string]string) (map[string][]LoopReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)

	// Stage 1: parse every file concurrently into per-worker scratch
	// sessions; the ASTs live until the deferred scratch release below,
	// past the last stage that reads them.
	ss := &scratchSet{pool: &e.fe}
	defer ss.release()
	scrs := ss.ensure(e.stageWorkers(len(names)))
	files := make([]*cast.File, len(names))
	errs := make([]error, len(names))
	parallel.ForEachWorker(e.workers, len(names), func(w, i int) {
		if ctx.Err() != nil {
			return
		}
		files[i], errs[i] = scrs[w].Parse.ParseFile(sources[names[i]])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: flatten loops of every parsed file into one work list so
	// a file with many loops keeps every worker busy.
	var jobs []loopJob
	var jobFile []int // job index → file index, for the per-file regroup
	for i, file := range files {
		if file == nil {
			continue
		}
		for _, job := range e.fileJobs(file, sources[names[i]]) {
			jobs = append(jobs, job)
			jobFile = append(jobFile, i)
		}
	}

	// Stage 3: analyze every loop of every file over the worker pool with
	// size-bucketed batched inference. Each report lands in its own slot
	// so output order is scheduling-independent.
	loopReports := e.analyzeJobs(ctx, jobs, ss)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4: regroup per file and sort by line.
	out := make(map[string][]LoopReport, len(names))
	for i, file := range files {
		if file != nil {
			out[names[i]] = []LoopReport{}
		}
	}
	for i := range jobs {
		name := names[jobFile[i]]
		out[name] = append(out[name], loopReports[i])
	}
	for name := range out {
		rs := out[name]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Line < rs[j].Line })
	}

	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", names[i], err))
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("graph2par: %d of %d files failed to parse: %s",
			len(failed), len(names), strings.Join(failed, "; "))
	}
	return out, nil
}

// buildGraph constructs and encodes the loop's aug-AST in the worker's
// scratch — the inference input half of the pipeline. The results live
// until the scratch is released.
func (e *Engine) buildGraph(job loopJob, scr *frontend.Scratch) (*auggraph.Graph, *auggraph.Encoded) {
	gopts := e.gopts
	gopts.Funcs = job.funcs
	g := scr.Graph.Build(job.loop, gopts)
	return g, scr.Graph.Encode(e.vocab, g)
}

// finishLoop turns a scored loop into its report: pragma synthesis, tool
// cross-checks, graph rendering, and the cache fill. key is the loop's
// cache key ("" when caching is off).
func (e *Engine) finishLoop(job loopJob, g *auggraph.Graph, key string, pred int, probs []float64) LoopReport {
	loop, file := job.loop, job.file
	report := LoopReport{
		Line:       loop.Pos().Line,
		Source:     cast.Print(loop),
		Parallel:   pred == 1,
		Confidence: probs[pred],
		GraphStats: g.Stats(),
		DOT:        g.DOT(fmt.Sprintf("loop at line %d", loop.Pos().Line)),
	}
	if report.Parallel {
		// The rewriter's derived directive: exactly the pragma a rewrite
		// plan gates and splices (unless the atomic rescue replaces it).
		// A while loop takes no worksharing directive, so it gets none.
		if f, ok := loop.(*cast.For); ok {
			cp := rewrite.DeriveClauses(f)
			report.Categories = cp.Categories()
			report.Suggestion = cp.Render()
		}
		if e.verify {
			// Static re-check of the suggestion just built (an empty one
			// asks whether any parallel for could land on the loop). The
			// verdict is cached with the report below: the cache key
			// already covers the file content and loop source (every
			// verify input), so a cached verdict can never go stale
			// relative to its loop.
			v := verify.Verify(verify.Request{Loop: loop, File: file, Pragma: report.Suggestion})
			report.Verdict = &v
			e.vstats.count(v.Level)
		}
		if e.rewrite {
			// Full per-loop rewrite plan: derived clauses, static gate,
			// atomic rescue, dynamic validation. Like the verdict, it is
			// cached with the report — PlanLoop reads nothing the cache key
			// does not already fingerprint.
			report.Rewrite = rewrite.PlanLoop(loop, file)
			e.rstats.count(report.Rewrite.Status)
		}
	}
	for _, tool := range e.tools {
		v := tool.Analyze(tools.Sample{Loop: loop, File: file, Compilable: true, Runnable: true})
		report.Tools = append(report.Tools, ToolVerdict{
			Tool:        tool.Name(),
			Processable: v.Processable,
			Parallel:    v.Processable && v.Parallel,
			Reason:      v.Reason,
		})
	}
	if e.cache != nil {
		// Store a detached copy: the caller owns the returned report and
		// may mutate its slices.
		e.cache.Put(key, cloneReport(report))
		if e.warmHook != nil {
			// Push-warm the key's other owners with their own detached
			// copy (the hook enqueues; it must never retain the caller's).
			e.warmHook(key, cloneReport(report))
		}
	}
	return report
}

// Format renders a human-readable report block.
func (r *LoopReport) Format() string {
	verdict := "NOT parallel"
	if r.Parallel {
		verdict = "parallel"
	}
	out := fmt.Sprintf("loop at line %d: %s (confidence %.2f)\n", r.Line, verdict, r.Confidence)
	if r.Suggestion != "" {
		out += "  suggestion: " + r.Suggestion + "\n"
	}
	if r.Verdict != nil {
		out += "  verify:    " + r.Verdict.Level.String()
		if r.Verdict.Reason != "" {
			out += " — " + r.Verdict.Reason
		}
		out += "\n"
	}
	if r.Rewrite != nil {
		out += "  rewrite:   " + string(r.Rewrite.Status)
		switch {
		case r.Rewrite.Status != rewrite.StatusSuggestion:
			out += " — " + r.Rewrite.Pragma
		case r.Rewrite.Reason != "":
			out += " — " + r.Rewrite.Reason
		}
		out += "\n"
	}
	for _, tv := range r.Tools {
		state := "not parallel"
		if !tv.Processable {
			state = "cannot process"
		} else if tv.Parallel {
			state = "parallel"
		}
		out += fmt.Sprintf("  %-9s %-14s %s\n", tv.Tool+":", state, tv.Reason)
	}
	out += "  aug-AST: " + r.GraphStats + "\n"
	return out
}
