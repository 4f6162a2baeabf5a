package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"graph2par"
	"graph2par/internal/auggraph"
	"graph2par/internal/cast"
	"graph2par/internal/frontend"
	"graph2par/internal/hgt"
	"graph2par/internal/rewrite"
	"graph2par/internal/tools"
	"graph2par/internal/tools/autopar"
	"graph2par/internal/tools/discopop"
	"graph2par/internal/tools/pluto"
	"graph2par/internal/train"
	"graph2par/internal/verify"
)

// span is one call the traced run made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Req    int    `json:"req"`    // input the call served, -1 for none
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time in nanoseconds:
// its duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End - s.Start - covered)
	}
	return out
}

// unit is one source the engine analyzed, with its reference result.
type unit struct {
	req     int
	src     string
	reports []graph2par.LoopReport
	output  string // RewriteSource output (rewrite only)
}

// replayer re-runs the engine's pipeline serially through each layer's
// public functions, one span per call, and checks every stage's result
// against the engine's reports.
type replayer struct {
	tr              *tracer
	model           *hgt.Model
	vocab           *auggraph.Vocab
	gopts           auggraph.Options
	tools           []tools.Tool
	verify, rewrite bool
	batch, workers  int
	scr             *frontend.Scratch

	loops, nodes, batches, graphs int
	discopopRuns, unprocessable   int
	levels                        map[verify.Level]int
	statuses                      map[rewrite.Status]int
	planNS                        []float64
	bad                           []string // disagreements with the engine
}

// item is one loop in flight through the replay.
type item struct {
	u      *unit
	loop   cast.Stmt
	file   *cast.File
	main   bool // the file defines main, so DiscoPoP executes the loop
	report *graph2par.LoopReport
	enc    *auggraph.Encoded
	root   int
}

func (r *replayer) mismatch(u *unit, format string, args ...any) {
	r.bad = append(r.bad, fmt.Sprintf("input %d: ", u.req)+fmt.Sprintf(format, args...))
}

// front parses one unit and builds every loop's aug-AST, returning the
// loops in the engine's job order.
func (r *replayer) front(u *unit, root int) []*item {
	sp := r.tr.begin("frontend.parse", root, u.req)
	file, err := r.scr.Parse.ParseFile(u.src)
	r.tr.end(sp)
	if err != nil {
		r.mismatch(u, "parse: %v", err)
		return nil
	}
	funcs := map[string]*cast.FuncDecl{}
	hasMain := false
	for _, fn := range file.Funcs {
		if fn.Body != nil {
			funcs[fn.Name] = fn
			hasMain = hasMain || fn.Name == "main"
		}
	}
	loops := collectLoops(file)
	if len(loops) != len(u.reports) {
		r.mismatch(u, "%d loops, engine reported %d", len(loops), len(u.reports))
		return nil
	}
	// The engine's reports are the job list stable-sorted by line.
	pos := make(map[cast.Stmt]int, len(loops))
	for i, l := range byLine(loops) {
		pos[l] = i
	}
	gopts := r.gopts
	gopts.Funcs = funcs
	items := make([]*item, len(loops))
	for i, l := range loops {
		it := &item{u: u, loop: l, file: file, main: hasMain, report: &u.reports[pos[l]], root: root}
		sp := r.tr.begin("frontend.graph", root, u.req)
		g := r.scr.Graph.Build(l, gopts)
		it.enc = r.scr.Graph.Encode(r.vocab, g)
		r.tr.end(sp)
		sp = r.tr.begin("frontend.dot", root, u.req)
		stats := g.Stats()
		dot := g.DOT(fmt.Sprintf("loop at line %d", l.Pos().Line))
		r.tr.end(sp)
		if stats != it.report.GraphStats || (it.report.DOT != "" && dot != it.report.DOT) || cast.Print(l) != it.report.Source {
			r.mismatch(u, "loop at line %d: aug-AST differs from the engine's", l.Pos().Line)
		}
		r.loops++
		r.nodes += len(it.enc.KindIDs)
		items[i] = it
	}
	return items
}

// infer scores items in the engine's batches: sorted by node count
// (stable over job order), chunked to min(batch, ceil(n/workers)).
func (r *replayer) infer(items []*item, root, req int) {
	order := append([]*item(nil), items...)
	sort.SliceStable(order, func(a, b int) bool { return len(order[a].enc.KindIDs) < len(order[b].enc.KindIDs) })
	chunk := (len(order) + r.workers - 1) / r.workers
	if chunk > r.batch {
		chunk = r.batch
	}
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(order); lo += chunk {
		hi := min(lo+chunk, len(order))
		encs := make([]*auggraph.Encoded, 0, hi-lo)
		for _, it := range order[lo:hi] {
			encs = append(encs, it.enc)
		}
		sp := r.tr.begin("hgt.infer", root, req)
		preds, probs := r.model.PredictBatch(encs)
		r.tr.end(sp)
		r.batches++
		r.graphs += len(encs)
		for k, it := range order[lo:hi] {
			if (preds[k] == 1) != it.report.Parallel || probs[k][preds[k]] != it.report.Confidence {
				r.mismatch(it.u, "loop at line %d: prediction differs from the engine's", it.report.Line)
			}
		}
	}
}

// finish runs the per-loop back half: the three tools, verify, and the
// rewrite planner. It returns the unit's plans in report order.
func (r *replayer) finish(it *item) *rewrite.LoopPlan {
	rep := it.report
	var plan *rewrite.LoopPlan
	if rep.Parallel && r.verify {
		sp := r.tr.begin("verify.check", it.root, it.u.req)
		v := verify.Verify(verify.Request{Loop: it.loop, File: it.file, Pragma: rep.Suggestion})
		r.tr.end(sp)
		r.levels[v.Level]++
		if rep.Verdict == nil || rep.Verdict.Level != v.Level {
			r.mismatch(it.u, "loop at line %d: verify level %s differs from the engine's", rep.Line, v.Level)
		}
	}
	if rep.Parallel && r.rewrite {
		sp := r.tr.begin("rewrite.plan", it.root, it.u.req)
		plan = rewrite.PlanLoop(it.loop, it.file)
		r.tr.end(sp)
		s := r.tr.spans[sp]
		r.planNS = append(r.planNS, float64(s.End-s.Start))
		r.statuses[plan.Status]++
	}
	if len(rep.Tools) != len(r.tools) {
		r.mismatch(it.u, "loop at line %d: %d tool verdicts, engine gave %d", rep.Line, len(r.tools), len(rep.Tools))
		return plan
	}
	for k, tool := range r.tools {
		sp := r.tr.begin("tools."+tool.Name(), it.root, it.u.req)
		v := tool.Analyze(tools.Sample{Loop: it.loop, File: it.file, Compilable: true, Runnable: true})
		r.tr.end(sp)
		if tool.Name() == "DiscoPoP" {
			if _, isFor := it.loop.(*cast.For); isFor && it.main {
				r.discopopRuns++
			}
		}
		if !v.Processable {
			r.unprocessable++
		}
		want := rep.Tools[k]
		if want.Processable != v.Processable || want.Parallel != (v.Processable && v.Parallel) || want.Reason != v.Reason {
			r.mismatch(it.u, "loop at line %d: %s verdict differs from the engine's", rep.Line, tool.Name())
		}
	}
	return plan
}

// backHalf finishes a unit's loops in report order and, for rewrite,
// splices the plans and compares the output with the engine's.
func (r *replayer) backHalf(u *unit, items []*item, root int) {
	sort.SliceStable(items, func(a, b int) bool { return items[a].report.Line < items[b].report.Line })
	var plans []*rewrite.LoopPlan
	for _, it := range items {
		if p := r.finish(it); p != nil {
			plans = append(plans, p)
		}
	}
	if !r.rewrite {
		return
	}
	sp := r.tr.begin("rewrite.apply", root, u.req)
	out, _, err := rewrite.Apply(u.src, plans)
	r.tr.end(sp)
	if err != nil || out != u.output {
		r.mismatch(u, "spliced output differs from the engine's (%v)", err)
	}
	k := 0
	for _, rep := range u.reports {
		if rep.Rewrite == nil {
			continue
		}
		if k >= len(plans) || plans[k].Status != rep.Rewrite.Status {
			r.mismatch(u, "loop at line %d: rewrite status differs from the engine's", rep.Line)
		}
		k++
	}
}

// run replays every unit. crossFile batches inference over all units
// together, as AnalyzeFiles does; otherwise each unit is batched on its
// own, as AnalyzeSource and RewriteSource do.
func (r *replayer) run(units []*unit, crossFile bool) {
	if crossFile {
		root := r.tr.begin("pass", -1, -1)
		var all [][]*item
		var flat []*item
		for _, u := range units {
			items := r.front(u, root)
			all = append(all, items)
			flat = append(flat, items...)
		}
		r.infer(flat, root, -1)
		for i, u := range units {
			r.backHalf(u, all[i], root)
		}
		r.tr.end(root)
		r.scr.Reset()
		return
	}
	for _, u := range units {
		root := r.tr.begin("file", -1, u.req)
		items := r.front(u, root)
		r.infer(items, root, u.req)
		r.backHalf(u, items, root)
		r.tr.end(root)
		r.scr.Reset()
	}
}

// stageNames are the spans whose self time is replayed engine work.
var stageNames = []string{
	"frontend.parse", "frontend.graph", "frontend.dot", "hgt.infer",
	"tools.autoPar", "tools.PLUTO", "tools.DiscoPoP", "verify.check",
	"rewrite.plan", "rewrite.apply",
}

// cpuSample is a reading of the runtime's CPU and allocation counters.
type cpuSample struct {
	gc, total float64 // CPU seconds: GC, and all
	alloc     uint64  // bytes allocated
}

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), alloc: s[2].Value.Uint64()}
}

func (c cpuSample) since(from cpuSample) cpuSample {
	return cpuSample{gc: c.gc - from.gc, total: c.total - from.total, alloc: c.alloc - from.alloc}
}

// traced runs the engine once untimed to get every report, times it with
// all workers and with one, replays the inputs layer by layer, and prints
// the per-layer metrics. Serve workloads also run their measured phase
// for the server-side counters.
func (b *bench) traced() (*outcome, error) {
	o := newOutcome()
	var loads []float64
	var model *hgt.Model
	var vocab *auggraph.Vocab
	var gopts auggraph.Options
	for i := 0; i < minSetups; i++ {
		t := time.Now()
		var err error
		if model, vocab, gopts, err = train.LoadCheckpoint(b.ckpt); err != nil {
			return nil, err
		}
		loads = append(loads, msSince(t))
	}
	var sr *serveRun
	if b.workload == "serve-miss" || b.workload == "serve-hot" {
		var err error
		if sr, err = b.runServe(true); err != nil {
			return nil, err
		}
		defer func() { _ = sr.live.stop() }() // nothing to do about a late shutdown error
	}
	units, wPar, cpu, err := b.reference(b.nproc)
	if err != nil {
		return nil, err
	}
	_, w1, _, err := b.reference(1)
	if err != nil {
		return nil, err
	}
	loopsServed := 0
	for _, u := range units {
		loopsServed += len(u.reports)
	}
	if sr != nil {
		cpu, loopsServed = sr.cpu, sr.loops
	}

	cfg := b.engineConfig()
	rp := &replayer{
		tr: newTracer(), model: model, vocab: vocab, gopts: gopts,
		tools:  []tools.Tool{autopar.New(), pluto.New(), discopop.New()},
		verify: cfg.Verify, rewrite: cfg.Rewrite,
		batch: graph2par.DefaultBatchSize, workers: b.nproc,
		scr:    frontend.NewScratch(),
		levels: map[verify.Level]int{}, statuses: map[rewrite.Status]int{},
	}
	t := time.Now()
	rp.run(units, b.workload == "corpus")
	replayWall := time.Since(t)
	var handler handlerStats
	if sr != nil {
		handler = b.replayHandlers(rp.tr, sr.live, units)
	}
	spanPath := filepath.Join(b.build, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := rp.tr.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(rp.tr.spans), spanPath)
	for _, m := range rp.bad {
		fmt.Fprintln(os.Stderr, "perfbench: replay disagrees with the engine:", m)
	}
	// A disagreement fails the run; so does a failed check of a serve
	// workload's measured phase.
	o.Attempted = max(rp.loops, 1)
	o.Failed = min(len(rp.bad), o.Attempted)
	if sr != nil {
		o.Attempted += sr.o.Attempted
		o.Failed += sr.o.Failed
	}

	self := selfTimes(rp.tr.spans)
	count := map[string]int{}
	for _, s := range rp.tr.spans {
		count[s.Name]++
	}
	perCall := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return self[name] / float64(count[name]) / 1e3
	}
	perLoop := func(name string) float64 {
		if rp.loops == 0 {
			return 0
		}
		return self[name] / float64(rp.loops) / 1e3
	}
	stage := 0.0
	for _, n := range stageNames {
		stage += self[n]
	}
	stage /= 1e9

	o.set("train.load_ms", median(loads), fmt.Sprintf("median of %d checkpoint loads", len(loads)))
	o.set("frontend.parse_us", perCall("frontend.parse"), "per file")
	o.set("frontend.graph_us", perLoop("frontend.graph"), "per loop: Build + Encode")
	o.set("frontend.dot_us", perLoop("frontend.dot"), "per loop: DOT + Stats")
	o.set("frontend.nodes_mean", ratio(rp.nodes, rp.loops), "aug-AST nodes per loop")
	o.set("hgt.infer_us", perLoop("hgt.infer"), "per loop")
	o.set("hgt.batch_mean", ratio(rp.graphs, rp.batches), fmt.Sprintf("graphs per forward pass, %d passes", rp.batches))
	o.set("tools.discopop_us", perLoop("tools.DiscoPoP"), "per loop")
	o.set("tools.pluto_us", perLoop("tools.PLUTO"), "per loop")
	o.set("tools.autopar_us", perLoop("tools.autoPar"), "per loop")
	o.set("tools.discopop_runs", float64(rp.discopopRuns), "loops whose program DiscoPoP executed")
	o.set("tools.unprocessable", float64(rp.unprocessable), "tool verdicts that could not process the loop")
	o.set("verify.check_us", perCall("verify.check"), "per verified suggestion")
	o.set("verify.safe", float64(rp.levels[verify.Safe]), "")
	o.set("verify.unknown", float64(rp.levels[verify.Unknown]), "")
	o.set("verify.unsafe", float64(rp.levels[verify.Unsafe]), "")
	maxPlan, tail := tailShare(rp.planNS)
	o.set("rewrite.plan_us", perCall("rewrite.plan"), "per planned loop")
	o.set("rewrite.plan_max_s", maxPlan/1e9, "slowest single PlanLoop")
	o.set("rewrite.tail_share", tail, "share of planning time in the slowest 1% of loops")
	o.set("rewrite.rewritten", float64(rp.statuses[rewrite.StatusRewritten]), "")
	o.set("rewrite.atomic", float64(rp.statuses[rewrite.StatusAtomic]), "")
	o.set("rewrite.suggestion", float64(rp.statuses[rewrite.StatusSuggestion]), "")

	var hitFrac, evictions, entries, lagP99, transport float64
	var queuedMax, shed float64
	if sr != nil {
		lookups := (sr.cacheTo.Hits - sr.cacheFrom.Hits) + (sr.cacheTo.Misses - sr.cacheFrom.Misses)
		if lookups > 0 {
			hitFrac = float64(sr.cacheTo.Hits-sr.cacheFrom.Hits) / float64(lookups)
		}
		evictions = float64(sr.cacheTo.Evictions - sr.cacheFrom.Evictions)
		entries = float64(sr.cacheTo.Entries)
		var lat, lags []float64
		for _, res := range sr.res {
			lat = append(lat, res.lat)
			lags = append(lags, res.lag)
		}
		lagP99, _ = percentile(lags, 99)
		p50, _ := percentile(lat, 50)
		transport = p50*1e3 - handler.p50Total
		queuedMax, shed = float64(sr.queuedMax), float64(sr.shed)
	}
	o.set("cache.hit_frac", hitFrac, "loop lookups of the measured phase that hit")
	o.set("cache.evictions", evictions, "during the measured phase")
	o.set("cache.entries", entries, "after the measured phase")
	o.set("serve.handler_us", handler.ownP50, "median over requests: handler on an in-memory recorder, minus engine time")
	o.set("serve.transport_us", transport, "client p50 latency minus recorder p50 handler time")
	o.set("serve.resp_kb", handler.meanKB, "")
	o.set("serve.queued_max", queuedMax, "admission queue high-water mark, /v1/stats every 50 ms")
	o.set("serve.shed", shed, "from /v1/stats")
	o.set("parallel.efficiency", stage/(float64(b.nproc)*wPar), fmt.Sprintf("replayed busy %.3f s / (%d workers × %.3f s wall)", stage, b.nproc, wPar))
	o.set("runtime.alloc_kb_per_loop", float64(cpu.alloc)/1024/float64(max(loopsServed, 1)), "")
	o.set("runtime.gc_cpu_frac", cpu.gc/max(cpu.total, 1e-9), "")
	o.set("loadgen.lag_p99_ms", lagP99, "how late the generator sent")
	o.set("trace.unattributed_frac", 1-stage/w1, fmt.Sprintf("1 - replayed stage time / single-worker engine time %.3f s", w1))
	o.set("trace.overhead_frac", spanCost()*float64(len(rp.tr.spans))/replayWall.Seconds(), "span bookkeeping / replay wall time")
	return o, nil
}

// reference runs the workload's engine untimed-by-the-metrics over the
// distinct inputs with the given worker count and cache off, returning a
// unit per input, the wall time in seconds, and the CPU counters.
func (b *bench) reference(workers int) ([]*unit, float64, cpuSample, error) {
	cfg := b.engineConfig()
	cfg.Workers, cfg.CacheSize = workers, 0
	e, err := graph2par.NewEngine(cfg)
	if err != nil {
		return nil, 0, cpuSample{}, err
	}
	var units []*unit
	cpu0 := readCPU()
	t := time.Now()
	switch b.workload {
	case "corpus":
		files := map[string]string{}
		for i, name := range b.in.Names {
			files[name] = b.in.Sources[i]
		}
		out, err := e.AnalyzeFiles(files)
		if err != nil {
			return nil, 0, cpuSample{}, err
		}
		for i, name := range b.in.Names {
			units = append(units, &unit{req: i, src: b.in.Sources[i], reports: out[name]})
		}
	case "rewrite":
		for i, src := range b.in.Sources {
			res, err := e.RewriteSource(src)
			if err != nil {
				return nil, 0, cpuSample{}, err
			}
			units = append(units, &unit{req: i, src: src, reports: res.Reports, output: res.Output})
		}
	default:
		// One source per distinct program: serve-hot's working set, and
		// serve-miss's first request for each program it drew.
		seen := map[int]bool{}
		for i, src := range b.in.Sources {
			if seen[b.in.Of[i]] {
				continue
			}
			seen[b.in.Of[i]] = true
			reports, err := e.AnalyzeSourceContext(context.Background(), src)
			if err != nil {
				return nil, 0, cpuSample{}, err
			}
			units = append(units, &unit{req: i, src: src, reports: reports})
		}
	}
	return units, time.Since(t).Seconds(), readCPU().since(cpu0), nil
}

// handlerStats summarizes the handler replays.
type handlerStats struct {
	ownP50   float64 // µs: median of handler time minus engine time
	p50Total float64 // µs: handler time including the engine
	meanKB   float64
}

// replayHandlers drives the live server's handler on an in-memory
// recorder for each unit, between two direct engine calls doing the same
// kind of lookup, so handler time minus their mean is the serving layer's
// own cost. serve-miss uses a fresh marker per call so every call misses
// the cache as its requests do; serve-hot repeats the cached working set.
func (b *bench) replayHandlers(tr *tracer, live *liveServer, units []*unit) handlerStats {
	h := live.srv.Handler()
	var own, total, kb []float64
	for i, u := range units {
		source := func(role string) string {
			if b.workload == "serve-miss" {
				return marker(u.src, fmt.Sprintf("replay %s %d", role, i))
			}
			return u.src
		}
		engine := func(role string) int64 {
			sp := tr.begin("engine", -1, u.req)
			_, _ = live.engine.AnalyzeSourceContext(context.Background(), source(role)) // pool programs always parse
			tr.end(sp)
			return tr.spans[sp].End - tr.spans[sp].Start
		}
		before := engine("engine-before")
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(envelope(source("handler"))))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		sp := tr.begin("serve.handler", -1, u.req)
		h.ServeHTTP(rec, req)
		tr.end(sp)
		took := tr.spans[sp].End - tr.spans[sp].Start
		after := engine("engine-after")
		if rec.Code == http.StatusOK {
			total = append(total, float64(took)/1e3)
			own = append(own, (float64(took)-float64(before+after)/2)/1e3)
			kb = append(kb, float64(rec.Body.Len())/1024)
		}
	}
	p50, _ := percentile(total, 50)
	ownP50, _ := percentile(own, 50)
	return handlerStats{ownP50: ownP50, p50Total: p50, meanKB: mean(kb)}
}

// tailShare returns the largest duration and the share of the total
// spent in the slowest 1% of durations (at least one).
func tailShare(ns []float64) (maxNS, share float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), ns...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := (len(s) + 99) / 100
	return s[0], sum(s[:k]) / sum(s)
}

// spanCost measures the tracer's own cost per span, in seconds.
func spanCost() float64 {
	t := newTracer()
	const n = 100_000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", -1, i))
	}
	return time.Since(start).Seconds() / n
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printInputs prints (and records) the input properties.
func (b *bench) printInputs(o *outcome) error {
	p, err := b.in.properties()
	if err != nil {
		return err
	}
	o.set("input.files", float64(p.Files), "distinct programs")
	o.set("input.loops", float64(p.Loops), "")
	o.set("input.loops_per_file", ratio(p.Loops, p.Files), "")
	o.set("input.runnable_frac", p.RunnableFrac, "share of loops DiscoPoP executes")
	ws, capacity := 0.0, 0.0
	if b.workload == "serve-hot" {
		ws = float64(p.Loops)
	}
	if b.workload == "serve-miss" || b.workload == "serve-hot" {
		capacity = cacheCapacity
	}
	o.set("input.ws_entries", ws, "working-set loop reports (serve-hot)")
	o.set("input.cache_capacity", capacity, "cache capacity in loop reports (serve-*)")
	return nil
}
