// Command graph2bench is an open-loop load and latency harness for the
// graph2serve v1 API. Unlike a closed-loop driver (whose request rate
// collapses to whatever the server sustains, hiding queueing), it fires
// requests at a fixed arrival rate regardless of completions — the only
// schedule a production ingress actually faces — and reports the
// latency distribution (p50/p90/p99/p999), the shed rate and the error
// rates as JSON plus `go test -bench`-format lines that cmd/benchjson
// can summarize and gate.
//
// Usage (against a running server):
//
//	graph2bench -url http://localhost:8080 -qps 50 -duration 10s
//
// Usage (self-contained, as CI runs it):
//
//	graph2bench -inprocess -qps 40 -duration 5s \
//	  -bench-out bench_serve.txt -json-out serve_load.json
//
// -inprocess trains a small engine and serves it from this process on a
// loopback port, so the harness needs no orchestration — the numbers
// include the real HTTP stack, loopback transport included.
//
// Each request is a distinct source file by default (a unique integer
// literal per request defeats the content-addressed cache), so the load
// exercises the full analysis pipeline; -corpus replays .c files from a
// directory instead, and -repeat re-sends one source (pure cache-hit
// serving). Status accounting follows the v1 API contract: 429 is
// load-shedding or rate-limiting (by error code), 504 is the client's
// own deadline budget expiring (counted apart from server 5xx — a
// correctly shedding server under overload emits zero 5xx).
//
// Gates (exit nonzero on violation, for CI):
//
//	-gate-p99 100ms   p99 of successful requests must stay under this
//	-require-shed     at least one 429 must occur, and every 429 must
//	                  carry a Retry-After header (overload runs)
//	-max-5xx 0        at most this many server 5xx responses
//
// Chaos mode (-chaos) boots an in-process replica fleet sharing one
// checkpoint, kills and restarts one replica mid-load, and gates on the
// fault-tolerance contract (zero 5xx, shed-only 429s, byte-identical
// responses, peer-cache recovery after the restart) — see chaos.go.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graph2par"
	"graph2par/internal/serve"
)

// requestBody is the v1 request envelope subset the harness sends.
type requestBody struct {
	Source     string `json:"source"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	ClientID   string `json:"client_id,omitempty"`
}

// report is the JSON document graph2bench emits.
type report struct {
	Config    configEcho  `json:"config"`
	Counts    counts      `json:"counts"`
	Rates     rates       `json:"rates"`
	LatencyMS percentiles `json:"latencyMs"`    // successful (200) requests
	AllMS     percentiles `json:"allLatencyMs"` // every completed exchange
	Elapsed   float64     `json:"elapsedSeconds"`
	Gates     []string    `json:"gates,omitempty"`
}

type configEcho struct {
	URL         string  `json:"url"`
	QPS         float64 `json:"qps"`
	Duration    string  `json:"duration"`
	Concurrency int     `json:"concurrency"`
	DeadlineMS  int64   `json:"deadlineMs,omitempty"`
	Workload    string  `json:"workload"`
	InProcess   bool    `json:"inprocess,omitempty"`
}

type counts struct {
	Sent          uint64 `json:"sent"`
	OK            uint64 `json:"ok"`
	Shed          uint64 `json:"shed"`          // 429 code "overloaded"
	RateLimited   uint64 `json:"rateLimited"`   // 429 code "rate_limited"
	Deadline      uint64 `json:"deadline"`      // 504 — the client's own budget
	Errors4xx     uint64 `json:"errors4xx"`     // other 4xx
	Errors5xx     uint64 `json:"errors5xx"`     // server failures (the overload gate pins 0)
	Transport     uint64 `json:"transport"`     // connection/timeout failures
	ClientDropped uint64 `json:"clientDropped"` // arrivals beyond the concurrency cap
	MissingRetry  uint64 `json:"missingRetryAfter"`
}

type rates struct {
	Shed  float64 `json:"shed"`
	Error float64 `json:"error"` // transport + 4xx (minus 429) + 5xx over sent
}

type percentiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// outcome is one completed exchange.
type outcome struct {
	status     int
	code       string // v1 error envelope code ("" on success)
	latency    time.Duration
	transport  bool
	retryAfter bool
}

func main() {
	url := flag.String("url", "", "target server base URL (mutually exclusive with -inprocess)")
	inprocess := flag.Bool("inprocess", false, "train a small engine and serve it in-process on a loopback port")
	qps := flag.Float64("qps", 50, "open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	concurrency := flag.Int("concurrency", 256, "client-side cap on in-flight requests; arrivals beyond it are counted clientDropped, preserving the open loop")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-request deadline_ms sent in the envelope (0 = none)")
	corpus := flag.String("corpus", "", "directory of .c files to replay round-robin (default: synthetic distinct sources)")
	repeat := flag.Bool("repeat", false, "send one fixed source every time (pure cache-hit load) instead of distinct sources")
	work := flag.Int("work", 3, "loops per synthetic source file; overload runs raise this until per-request service time exceeds 1/qps, so the offered load genuinely outruns capacity")
	benchOut := flag.String("bench-out", "", "write go-bench-format latency lines here (for cmd/benchjson)")
	jsonOut := flag.String("json-out", "", "write the JSON report here (default: stdout)")
	gateP99 := flag.Duration("gate-p99", 0, "fail unless p99 of successful requests is under this (0 disables)")
	requireShed := flag.Bool("require-shed", false, "fail unless shedding engaged (≥1 overloaded 429) and every 429 carried Retry-After")
	max5xx := flag.Int64("max-5xx", -1, "fail when server 5xx responses exceed this (-1 disables)")
	// In-process server knobs (mirroring graph2serve's).
	scale := flag.Float64("scale", 0.008, "in-process training scale")
	epochs := flag.Int("epochs", 2, "in-process training epochs")
	seed := flag.Uint64("seed", 11, "in-process training seed")
	cacheSize := flag.Int("cache", 4096, "in-process analysis cache capacity")
	maxInflight := flag.Int("max-inflight", 0, "in-process admission slots (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 0, "in-process admission queue watermark")
	// Chaos mode: an in-process fleet with a kill/restart fault schedule.
	chaos := flag.Bool("chaos", false, "boot an in-process replica fleet, kill and restart one replica mid-load, and gate on the fault-tolerance contract (see chaos.go)")
	chaosReplicas := flag.Int("chaos-replicas", 3, "fleet size for -chaos (>= 3)")
	chaosKillAt := flag.Duration("chaos-kill-at", 2*time.Second, "when to kill the victim replica, from load start")
	chaosRestartAt := flag.Duration("chaos-restart-at", 4*time.Second, "when to restart the victim (cold cache, same address)")
	chaosCorpus := flag.Int("chaos-corpus", 24, "distinct files cycled by the chaos workload (repeats engage the peer cache tier)")
	chaosFaultSeed := flag.Uint64("chaos-fault-seed", 1, "deterministic seed for injected peer-exchange faults")
	chaosFaultRate := flag.Float64("chaos-fault-rate", 0, "probability of injected latency per peer exchange (0 disables fault injection; kill/restart still happens)")
	flag.Parse()

	if *chaos {
		os.Exit(chaosRun(chaosConfig{
			replicas:    *chaosReplicas,
			killAt:      *chaosKillAt,
			restartAt:   *chaosRestartAt,
			corpusSize:  *chaosCorpus,
			work:        *work,
			qps:         *qps,
			duration:    *duration,
			concurrency: *concurrency,
			scale:       *scale,
			epochs:      *epochs,
			seed:        *seed,
			cacheSize:   *cacheSize,
			faultSeed:   *chaosFaultSeed,
			faultRate:   *chaosFaultRate,
			jsonOut:     *jsonOut,
			benchOut:    *benchOut,
		}))
	}

	if (*url == "") == !*inprocess {
		fmt.Fprintln(os.Stderr, "graph2bench: exactly one of -url or -inprocess is required")
		os.Exit(2)
	}

	target := *url
	var shutdown func()
	if *inprocess {
		var err error
		target, shutdown, err = startInProcess(*scale, *epochs, *seed, *cacheSize, *maxInflight, *maxQueue)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graph2bench:", err)
			os.Exit(1)
		}
		defer shutdown()
	}
	target = strings.TrimRight(target, "/")

	gen, workload, err := sourceGenerator(*corpus, *repeat, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graph2bench:", err)
		os.Exit(1)
	}

	outcomes, sent, dropped, elapsed := run([]string{target}, gen, *qps, *duration, *concurrency, *deadlineMS)

	rep := summarize(outcomes, sent, dropped, elapsed)
	rep.Config = configEcho{
		URL: target, QPS: *qps, Duration: duration.String(), Concurrency: *concurrency,
		DeadlineMS: *deadlineMS, Workload: workload, InProcess: *inprocess,
	}

	failed := applyGates(&rep, *gateP99, *requireShed, *max5xx)

	if *benchOut != "" {
		if err := writeBenchLines(*benchOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "graph2bench:", err)
			os.Exit(1)
		}
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "graph2bench:", err)
			os.Exit(1)
		}
		// The human-readable verdicts still go to stdout.
		for _, g := range rep.Gates {
			fmt.Println(g)
		}
	} else {
		os.Stdout.Write(raw)
	}
	if failed {
		os.Exit(1)
	}
}

// startInProcess trains a small engine and serves it on a loopback port.
func startInProcess(scale float64, epochs int, seed uint64, cacheSize, maxInflight, maxQueue int) (string, func(), error) {
	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		TrainScale: scale, Epochs: epochs, Seed: seed, CacheSize: cacheSize, Quiet: true,
	})
	if err != nil {
		return "", nil, err
	}
	s := serve.NewWithConfig(engine, serve.ServeConfig{MaxInflight: maxInflight, MaxQueue: maxQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// sourceGenerator returns a per-request source function and a label for
// the report. The synthetic default makes every request a distinct file
// (unique integer literal) so the content-addressed cache cannot answer
// and the harness measures real pipeline work.
func sourceGenerator(corpusDir string, repeat bool, work int) (func(i uint64) string, string, error) {
	if work < 1 {
		work = 1
	}
	if corpusDir != "" {
		files, err := filepath.Glob(filepath.Join(corpusDir, "*.c"))
		if err != nil {
			return nil, "", err
		}
		if len(files) == 0 {
			return nil, "", fmt.Errorf("no .c files in %s", corpusDir)
		}
		sort.Strings(files)
		sources := make([]string, len(files))
		for i, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return nil, "", err
			}
			sources[i] = string(raw)
		}
		return func(i uint64) string { return sources[i%uint64(len(sources))] },
			fmt.Sprintf("corpus:%s (%d files)", corpusDir, len(sources)), nil
	}
	if repeat {
		src := syntheticSource(0, work)
		return func(uint64) string { return src }, "repeat (cache-hit)", nil
	}
	return func(i uint64) string { return syntheticSource(i, work) },
		fmt.Sprintf("synthetic distinct (cache-miss, %d loops)", work), nil
}

// syntheticSource renders one multi-loop file of `work` analyzable loops;
// the literal i makes each request content-distinct (defeating the
// content-addressed cache), and each loop costs the server one graph
// construction plus an HGT forward pass, so `work` is the per-request
// service-time dial.
func syntheticSource(i uint64, work int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int main() {\n    int a[64], b[64];\n    int k, s = %d;\n", i)
	for j := 0; j < work; j++ {
		fmt.Fprintf(&b, "    for (k = 0; k < 64; k++) a[k] = b[k] * %d + %d;\n", j+1, i)
	}
	b.WriteString("    for (k = 0; k < 64; k++) s += a[k];\n    return s;\n}\n")
	return b.String()
}

// run generates the open-loop arrival schedule and collects outcomes.
// Arrivals go to the targets round-robin (the load balancer a real fleet
// would have).
func run(targets []string, gen func(uint64) string, qps float64, duration time.Duration, concurrency int, deadlineMS int64) ([]outcome, uint64, uint64, float64) {
	if qps <= 0 {
		qps = 1
	}
	interval := time.Duration(float64(time.Second) / qps)
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		},
	}

	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
		sent     atomic.Uint64
		dropped  atomic.Uint64
	)
	sem := make(chan struct{}, concurrency)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(duration)

	var i uint64
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			// Open loop: the arrival happens now whether or not capacity is
			// free. Beyond the client cap the arrival is counted, not queued
			// (queueing client-side would quietly turn this into a closed
			// loop).
			select {
			case sem <- struct{}{}:
			default:
				dropped.Add(1)
				i++
				continue
			}
			sent.Add(1)
			src := gen(i)
			target := targets[i%uint64(len(targets))]
			i++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				o := exchange(client, target, src, deadlineMS)
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return outcomes, sent.Load(), dropped.Load(), time.Since(start).Seconds()
}

// exchange performs one POST /v1/analyze and classifies the result.
func exchange(client *http.Client, target, src string, deadlineMS int64) outcome {
	body, _ := json.Marshal(requestBody{Source: src, DeadlineMS: deadlineMS, ClientID: "graph2bench"})
	t0 := time.Now()
	resp, err := client.Post(target+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{transport: true, latency: time.Since(t0)}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After") != ""}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		o.code = env.Error.Code
	} else {
		// Drain so the connection is reusable; the decoded content is not
		// needed for timing.
		var sink json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&sink)
	}
	o.latency = time.Since(t0)
	return o
}

// summarize folds outcomes into the report counters and distributions.
func summarize(outcomes []outcome, sent, dropped uint64, elapsed float64) report {
	var c counts
	c.Sent = sent
	c.ClientDropped = dropped
	var okLat, allLat []time.Duration
	for _, o := range outcomes {
		allLat = append(allLat, o.latency)
		switch {
		case o.transport:
			c.Transport++
		case o.status == http.StatusOK:
			c.OK++
			okLat = append(okLat, o.latency)
		case o.status == http.StatusTooManyRequests:
			if o.code == "rate_limited" {
				c.RateLimited++
			} else {
				c.Shed++
			}
			if !o.retryAfter {
				c.MissingRetry++
			}
		case o.status == http.StatusGatewayTimeout:
			c.Deadline++
		case o.status >= 500:
			c.Errors5xx++
		case o.status >= 400:
			c.Errors4xx++
		}
	}
	var r rates
	if sent > 0 {
		r.Shed = float64(c.Shed+c.RateLimited) / float64(sent)
		r.Error = float64(c.Transport+c.Errors4xx+c.Errors5xx) / float64(sent)
	}
	return report{
		Counts:    c,
		Rates:     r,
		LatencyMS: toPercentiles(okLat),
		AllMS:     toPercentiles(allLat),
		Elapsed:   elapsed,
	}
}

// toPercentiles computes the latency distribution in milliseconds.
func toPercentiles(lat []time.Duration) percentiles {
	if len(lat) == 0 {
		return percentiles{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return percentiles{
		Count: len(lat),
		P50:   ms(quantile(lat, 0.50)),
		P90:   ms(quantile(lat, 0.90)),
		P99:   ms(quantile(lat, 0.99)),
		P999:  ms(quantile(lat, 0.999)),
		Max:   ms(lat[len(lat)-1]),
	}
}

// quantile picks the nearest-rank element of a sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// applyGates evaluates the CI gates, recording verdicts on the report
// and returning whether any failed.
func applyGates(rep *report, gateP99 time.Duration, requireShed bool, max5xx int64) bool {
	failed := false
	addGate := func(ok bool, format string, args ...any) {
		verdict := "PASS: "
		if !ok {
			verdict = "FAIL: "
			failed = true
		}
		rep.Gates = append(rep.Gates, verdict+fmt.Sprintf(format, args...))
	}
	if gateP99 > 0 {
		limit := float64(gateP99) / float64(time.Millisecond)
		if rep.LatencyMS.Count == 0 {
			addGate(false, "p99 gate: no successful requests to measure")
		} else {
			addGate(rep.LatencyMS.P99 <= limit, "p99 %.1fms vs limit %.1fms", rep.LatencyMS.P99, limit)
		}
	}
	if requireShed {
		addGate(rep.Counts.Shed > 0, "shedding engaged: %d overloaded 429s", rep.Counts.Shed)
		addGate(rep.Counts.MissingRetry == 0, "429s without Retry-After: %d", rep.Counts.MissingRetry)
	}
	if max5xx >= 0 {
		addGate(rep.Counts.Errors5xx <= uint64(max5xx), "server 5xx responses: %d (limit %d; 504 deadline budgets excluded: %d)",
			rep.Counts.Errors5xx, max5xx, rep.Counts.Deadline)
	}
	return failed
}

// writeBenchLines emits the latency distribution in the one-line format
// cmd/benchjson parses, as the BENCH_serve family: the percentile of
// successful request latency in ns/op, with n = the sample count.
func writeBenchLines(path string, rep report) error {
	if rep.LatencyMS.Count == 0 {
		return fmt.Errorf("no successful requests; nothing to write to %s", path)
	}
	var b strings.Builder
	line := func(name string, msVal float64) {
		fmt.Fprintf(&b, "%s %d %.0f ns/op\n", name, rep.LatencyMS.Count, msVal*float64(time.Millisecond))
	}
	line("BenchmarkServeP50", rep.LatencyMS.P50)
	line("BenchmarkServeP90", rep.LatencyMS.P90)
	line("BenchmarkServeP99", rep.LatencyMS.P99)
	line("BenchmarkServeP999", rep.LatencyMS.P999)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
