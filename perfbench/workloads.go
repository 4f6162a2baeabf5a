package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"graph2par"
	"graph2par/internal/cparse"
)

// minSetups is how many set-ups every run times; setup_s is their median.
// warmSetups more, untimed, come first: the first set-ups in a process
// also pay for mapping fresh memory.
const (
	minSetups  = 31
	warmSetups = 3
)

// engineConfig is the workload's engine: graph2par -verify for corpus,
// graph2par -rewrite-out for rewrite, graph2serve's defaults for serve-*.
func (b *bench) engineConfig() graph2par.EngineConfig {
	cfg := graph2par.EngineConfig{ModelPath: b.ckpt, Workers: b.nproc}
	switch b.workload {
	case "corpus":
		cfg.Verify = true
	case "rewrite":
		cfg.Verify, cfg.Rewrite = true, true
	default:
		cfg.CacheSize = cacheCapacity
	}
	return cfg
}

func (b *bench) untraced() (*outcome, error) {
	if _, err := b.setUp(b.engineConfig(), warmSetups, new([]float64)); err != nil {
		return nil, err
	}
	switch b.workload {
	case "corpus":
		return b.runCorpus()
	case "rewrite":
		return b.runRewrite()
	}
	r, err := b.runServe(false)
	if err != nil {
		return nil, err
	}
	return r.o, nil
}

// timeSetup times one set-up: checkpoint load plus NewEngine. A
// collection first clears the harness's own garbage, as a fresh process
// would start without it, so it is not charged to the set-up.
func (b *bench) timeSetup(cfg graph2par.EngineConfig) (*graph2par.Engine, float64, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := graph2par.NewEngine(cfg)
	return e, time.Since(t0).Seconds(), err
}

// setSetup reports setup_s, the median of the run's set-up times, and
// prints every sample in milliseconds.
func (o *outcome) setSetup(setups []float64, what string) {
	ms := make([]float64, len(setups))
	for i, s := range setups {
		ms[i] = s * 1000
	}
	fmt.Printf("set-up times (ms): %s\n", fmtList(ms, 1))
	o.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups%s", len(setups), what))
}

// setUp makes n set-ups in a row, appends their times to setups and
// returns the last engine.
func (b *bench) setUp(cfg graph2par.EngineConfig, n int, setups *[]float64) (*graph2par.Engine, error) {
	var e *graph2par.Engine
	for i := 0; i < n; i++ {
		var s float64
		var err error
		if e, s, err = b.timeSetup(cfg); err != nil {
			return nil, err
		}
		*setups = append(*setups, s)
	}
	return e, nil
}

// topUpSetups adds set-ups until there are minSetups samples.
func (b *bench) topUpSetups(setups []float64) ([]float64, error) {
	_, err := b.setUp(b.engineConfig(), minSetups-len(setups), &setups)
	return setups, err
}

// corpusSetupsPerPass is how many set-ups each corpus pass times; the
// pass analyzes with the last engine.
const corpusSetupsPerPass = 2

// runCorpus: closed loop, one caller. Each pass is one graph2par -verify
// invocation: a fresh engine from the checkpoint, then one AnalyzeFiles
// over the whole input set.
func (b *bench) runCorpus() (*outcome, error) {
	o := newOutcome()
	cfg := b.engineConfig()
	files := map[string]string{}
	for i, name := range b.in.Names {
		files[name] = b.in.Sources[i]
	}
	// Reference pass, untimed: the digest every later pass must repeat.
	e, err := graph2par.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := e.AnalyzeFiles(files)
	if err != nil {
		return nil, err
	}
	want := reportsDigest(b.in.Names, ref)
	loops := 0
	for _, rs := range ref {
		loops += len(rs)
	}
	var setups, lat []float64
	ok := 0
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < time.Duration(b.seconds)*time.Second {
		if e, err = b.setUp(cfg, corpusSetupsPerPass, &setups); err != nil {
			return nil, err
		}
		t := time.Now()
		out, err := e.AnalyzeFiles(files)
		lat = append(lat, msSince(t))
		if err == nil && reportsDigest(b.in.Names, out) == want {
			ok++
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(e)
	if setups, err = b.topUpSetups(setups); err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = len(lat), len(lat)-ok
	fmt.Printf("reference digest %s over %d files, %d loops\n", want[:16], len(files), loops)
	o.setSetup(setups, "")
	fmt.Printf("pass latencies (ms): %s\n", fmtList(lat, 0))
	o.set("loops_per_s", float64(loops)/(median(lat)/1000), fmt.Sprintf("%d loops over the median of %d passes", loops, len(lat)))
	b.setLatency(o, lat, "per pass")
	o.set("ok_frac", float64(ok)/float64(len(lat)), fmt.Sprintf("%d of %d passes repeat the reference digest", ok, len(lat)))
	o.set("heap_mb", heap, "live heap after GC, last engine reachable")
	o.set("accuracy", b.accuracy(ref), "target loops matching their label")
	o.set("rewritten_frac", 1, "rewrite stage off on this workload: no plans, reported as 1")
	return o, nil
}

// A rewrite run makes passes for --seconds, and then up to
// rewritePasses of them while it is within a quarter more. Each file's
// time is its median over the passes, so a host stall must cover half of
// a run's passes to move loops_per_s or p50_ms. Each pass times
// rewriteSetupsPerPass set-ups and rewrites with the last engine.
const (
	rewritePasses        = 5
	rewriteSetupsPerPass = (minSetups + rewritePasses - 1) / rewritePasses
)

// runRewrite: closed loop, one caller, RewriteSource per file with verify
// and rewrite on, as graph2par -rewrite-out does; each pass starts from a
// fresh engine. The first pass is the reference: every output must
// re-parse, and later passes must repeat it byte for byte.
func (b *bench) runRewrite() (*outcome, error) {
	o := newOutcome()
	cfg := b.engineConfig()
	want := make([]string, len(b.in.Sources))
	refReports := map[string][]graph2par.LoopReport{}
	perFile := make([][]float64, len(b.in.Sources))
	var setups, passMS []float64
	var st graph2par.RewriteStats
	ok, attempted, loops := 0, 0, 0
	var e *graph2par.Engine
	span := time.Duration(b.seconds) * time.Second
	start := time.Now()
	for pass := 0; time.Since(start) < span || (pass < rewritePasses && time.Since(start) < span*5/4); pass++ {
		var err error
		if e, err = b.setUp(cfg, rewriteSetupsPerPass, &setups); err != nil {
			return nil, err
		}
		passSum := 0.0
		for i, src := range b.in.Sources {
			attempted++
			t := time.Now()
			res, err := e.RewriteSource(src)
			ms := msSince(t)
			perFile[i] = append(perFile[i], ms)
			passSum += ms
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: rewriting %s: %v\n", b.in.Names[i], err)
				continue
			}
			if pass > 0 {
				if want[i] != "" && rewriteDigest(res) == want[i] {
					ok++
				}
				continue
			}
			loops += len(res.Reports)
			refReports[b.in.Names[i]] = res.Reports
			if _, err := cparse.ParseFile(res.Output); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: rewritten %s does not re-parse: %v\n", b.in.Names[i], err)
				continue
			}
			want[i] = rewriteDigest(res)
			ok++
		}
		passMS = append(passMS, passSum)
		if pass == 0 {
			st, _ = e.RewriteStats()
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(e)
	setups, err := b.topUpSetups(setups)
	if err != nil {
		return nil, err
	}
	fileMS := make([]float64, len(perFile)) // each file's median time
	for i, ts := range perFile {
		fileMS[i] = median(ts)
	}
	plans := st.Rewritten + st.Atomic + st.Suggestion
	o.Attempted, o.Failed = attempted, attempted-ok
	o.setSetup(setups, "")
	fmt.Printf("pass times (ms): %s\n", fmtList(passMS, 0))
	o.set("loops_per_s", float64(loops)/(sum(fileMS)/1000),
		fmt.Sprintf("%d loops over the sum of %d files' median times in %d passes", loops, len(fileMS), len(passMS)))
	b.setLatency(o, fileMS, fmt.Sprintf("per file, median of %d passes", len(passMS)))
	o.set("ok_frac", float64(ok)/float64(attempted), fmt.Sprintf("%d of %d files re-parse and repeat the first pass", ok, attempted))
	o.set("heap_mb", heap, "live heap after GC, last engine reachable")
	o.set("accuracy", b.accuracy(refReports), "target loops matching their label")
	o.set("rewritten_frac", float64(st.Rewritten+st.Atomic)/float64(max(plans, 1)),
		fmt.Sprintf("%d rewritten + %d atomic of %d plans", st.Rewritten, st.Atomic, plans))
	return o, nil
}

// setLatency prints p50_ms and p99_ms of lat (milliseconds). p99 is a
// tail estimate only with at least ten samples beyond it; with fewer the
// nearest-rank p99 is the slowest operation, and the note says so.
func (b *bench) setLatency(o *outcome, lat []float64, what string) {
	p50, _ := percentile(lat, 50)
	p99, beyond := percentile(lat, 99)
	o.set("p50_ms", p50, fmt.Sprintf("%s, n=%d", what, len(lat)))
	note := fmt.Sprintf("%s, n=%d, %d beyond", what, len(lat), beyond)
	if !tailReportable(len(lat), 99) {
		note += "; under ten beyond, so this is the slowest operation, not a tail estimate"
	}
	o.set("p99_ms", p99, note)
}

// accuracy is the share of input programs whose target-loop report
// predicts the dataset label; byName maps each input name to its reports.
func (b *bench) accuracy(byName map[string][]graph2par.LoopReport) float64 {
	hit, n := 0, 0
	for i, name := range b.in.Names {
		rs, ok := byName[name]
		if !ok {
			continue
		}
		n++
		if targetMatches(b.in.Progs[b.in.Of[i]], rs) {
			hit++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// targetMatches reports whether the report of p's target loop predicts
// p's label; a missing target report counts as a miss.
func targetMatches(p program, reports []graph2par.LoopReport) bool {
	for _, r := range reports {
		if r.Line == p.TargetLine && r.Source == p.TargetSrc {
			return r.Parallel == p.Parallel
		}
	}
	return false
}

// reportsDigest hashes every report of every named file, DOT included.
func reportsDigest(names []string, byName map[string][]graph2par.LoopReport) string {
	h := sha256.New()
	for _, name := range names {
		data, _ := json.Marshal(byName[name]) // LoopReport always marshals
		fmt.Fprintf(h, "%s\x00%s\x00", name, data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rewriteDigest hashes one rewrite's output and reports.
func rewriteDigest(res *graph2par.RewriteResult) string {
	data, _ := json.Marshal(res.Reports) // LoopReport always marshals
	sum := sha256.Sum256([]byte(res.Output + "\x00" + string(data)))
	return hex.EncodeToString(sum[:])
}

// liveHeapMB forces collections and returns the live heap in MiB. The
// second collection empties the sync.Pool victim caches, which hold
// reclaimable scratch rather than live data and would otherwise make the
// figure depend on when the last collection ran.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
