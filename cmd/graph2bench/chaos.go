// Chaos mode: -chaos boots a multi-replica in-process fleet sharing one
// trained checkpoint, drives open-loop load at the survivors while one
// replica is killed and later restarted mid-run, and gates on the
// fault-tolerance contract:
//
//   - zero server 5xx and zero transport failures at the load-facing
//     replicas (faults degrade to local recompute, never to errors);
//   - every 429 is a shed/rate-limit with Retry-After (no silent drops);
//   - responses stay byte-identical to a local recompute on the
//     reference model, before, during and after the fault;
//   - every survivor's peer client holds the killed replica as down
//     just before it restarts (the health state machine fired);
//   - the restarted replica rejoins (survivors see it live again) and
//     recovers its shard from its co-owners (its cold cache serves the
//     corpus with peer hits, not wholesale recomputation).
//
// The peer transports optionally route through internal/faultinject
// (-chaos-fault-rate) so a soak can add deterministic latency storms on
// top of the kill/restart.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"graph2par"
	"graph2par/internal/faultinject"
	"graph2par/internal/peercache"
	"graph2par/internal/serve"
)

// chaosConfig is the -chaos run plan.
type chaosConfig struct {
	replicas    int
	killAt      time.Duration
	restartAt   time.Duration
	corpusSize  int
	work        int
	qps         float64
	duration    time.Duration
	concurrency int
	scale       float64
	epochs      int
	seed        uint64
	cacheSize   int
	faultSeed   uint64
	faultRate   float64
	jsonOut     string
	benchOut    string
}

// chaosProbeInterval is the fleet's health-probe period in chaos runs:
// short, so detection and rejoin both complete well inside the run.
const chaosProbeInterval = 100 * time.Millisecond

// chaosNode is one replica of the in-process fleet.
type chaosNode struct {
	engine *graph2par.Engine
	client *peercache.Client
	server *http.Server
	base   string
}

// chaosFleet owns the replicas and the shared checkpoint.
type chaosFleet struct {
	ckpt  string
	addrs []string
	urls  []string
	inj   *faultinject.Injector

	mu    sync.Mutex
	nodes []*chaosNode
}

// chaosRun executes the whole chaos scenario and returns the process
// exit code.
func chaosRun(cfg chaosConfig) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "graph2bench: chaos:", err)
		return 1
	}
	if cfg.replicas < 3 {
		return fail(fmt.Errorf("-chaos-replicas must be >= 3 (got %d): the scenario kills one replica and needs a surviving owner pair", cfg.replicas))
	}
	if !(cfg.killAt < cfg.restartAt && cfg.restartAt < cfg.duration) {
		return fail(fmt.Errorf("need -chaos-kill-at < -chaos-restart-at < -duration (got %s, %s, %s)",
			cfg.killAt, cfg.restartAt, cfg.duration))
	}

	// The reference model: trained once, saved for the fleet, and kept
	// un-wired so its answers are pure local recomputes.
	trainer, err := graph2par.NewEngine(graph2par.EngineConfig{
		TrainScale: cfg.scale, Epochs: cfg.epochs, Seed: cfg.seed,
		CacheSize: cfg.cacheSize, Quiet: true,
	})
	if err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp("", "graph2bench-chaos-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "fleet.ckpt")
	if err := trainer.Save(ckpt); err != nil {
		return fail(err)
	}

	corpus := make([]string, cfg.corpusSize)
	reference := make([]string, cfg.corpusSize)
	for i := range corpus {
		corpus[i] = syntheticSource(uint64(i), cfg.work)
		reports, err := trainer.AnalyzeSource(corpus[i])
		if err != nil {
			return fail(fmt.Errorf("reference analysis of file %d: %w", i, err))
		}
		reference[i] = marshalStripped(reports)
	}

	fleet := &chaosFleet{ckpt: ckpt}
	if cfg.faultRate > 0 {
		// Deterministic injected latency on peer exchanges, on top of the
		// kill/restart: the soak's "slow network" dial.
		fleet.inj = faultinject.New(cfg.faultSeed, faultinject.Rule{
			Kind: faultinject.Latency, Rate: cfg.faultRate, Delay: 25 * time.Millisecond,
		})
	}
	for i := 0; i < cfg.replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		fleet.addrs = append(fleet.addrs, ln.Addr().String())
		fleet.urls = append(fleet.urls, "http://"+ln.Addr().String())
		ln.Close()
	}
	for i := 0; i < cfg.replicas; i++ {
		if _, err := fleet.boot(i); err != nil {
			return fail(err)
		}
	}
	defer fleet.shutdown()

	victim := cfg.replicas - 1
	targets := fleet.urls[:victim] // load goes to the survivors only

	// The fault schedule runs concurrently with the load.
	var restarted sync.WaitGroup
	restarted.Add(1)
	var restartErr error
	var victimStates map[int]string
	time.AfterFunc(cfg.killAt, func() { fleet.kill(victim) })
	time.AfterFunc(cfg.restartAt, func() {
		defer restarted.Done()
		victimStates = fleet.peerStates(fleet.urls[victim])
		_, restartErr = fleet.boot(victim)
	})

	fmt.Printf("graph2bench: chaos: %d replicas, victim %s killed at %s, restarted at %s, load %g qps for %s at %d survivors\n",
		cfg.replicas, fleet.urls[victim], cfg.killAt, cfg.restartAt, cfg.qps, cfg.duration, len(targets))
	outcomes, sent, dropped, elapsed := run(targets, func(i uint64) string {
		return corpus[i%uint64(len(corpus))]
	}, cfg.qps, cfg.duration, cfg.concurrency, 0)

	restarted.Wait()
	if restartErr != nil {
		return fail(fmt.Errorf("restarting the victim: %w", restartErr))
	}
	// Let the probe loops finish rejoin detection: Down → Probing →
	// Healthy needs two consecutive probe passes.
	time.Sleep(4 * chaosProbeInterval)

	rep := summarize(outcomes, sent, dropped, elapsed)
	rep.Config = configEcho{
		URL: strings.Join(targets, ","), QPS: cfg.qps, Duration: cfg.duration.String(),
		Concurrency: cfg.concurrency,
		Workload:    fmt.Sprintf("chaos (%d replicas, %d-file corpus, %d loops/file)", cfg.replicas, cfg.corpusSize, cfg.work),
		InProcess:   true,
	}
	failed := chaosGates(&rep, fleet, victim, victimStates, corpus, reference)

	if cfg.benchOut != "" {
		if err := writeBenchLines(cfg.benchOut, rep); err != nil {
			return fail(err)
		}
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if cfg.jsonOut != "" {
		if err := os.WriteFile(cfg.jsonOut, raw, 0o644); err != nil {
			return fail(err)
		}
		for _, g := range rep.Gates {
			fmt.Println(g)
		}
	} else {
		os.Stdout.Write(raw)
	}
	if failed {
		return 1
	}
	return 0
}

// chaosGates evaluates the fault-tolerance contract after the run.
// victimStates holds each survivor's health state for the victim, read
// just before the restart.
func chaosGates(rep *report, fleet *chaosFleet, victim int, victimStates map[int]string, corpus, reference []string) bool {
	failed := false
	addGate := func(ok bool, format string, args ...any) {
		verdict := "PASS: "
		if !ok {
			verdict = "FAIL: "
			failed = true
		}
		rep.Gates = append(rep.Gates, verdict+fmt.Sprintf(format, args...))
	}

	// Ingress contract under faults: no 5xx, no transport failures, and
	// any 429 is an orderly shed with Retry-After.
	addGate(rep.Counts.Errors5xx == 0, "server 5xx responses during chaos: %d (want 0)", rep.Counts.Errors5xx)
	addGate(rep.Counts.Transport == 0, "transport failures at survivors: %d (want 0)", rep.Counts.Transport)
	addGate(rep.Counts.MissingRetry == 0, "429s without Retry-After: %d (want 0)", rep.Counts.MissingRetry)

	// The survivors detected the death: each one's health state machine
	// had taken the victim down before it came back.
	nodes := fleet.snapshot()
	for i := range nodes {
		if i != victim {
			addGate(victimStates[i] == peercache.Down.String(),
				"replica %d saw the victim as %q before its restart (want %q)", i, victimStates[i], peercache.Down)
		}
	}

	// The survivors detected the rejoin: every peer is live again.
	for i, n := range nodes {
		if i == victim || n == nil {
			continue
		}
		st := n.client.Stats()
		addGate(st.Live == st.Peers, "replica %d sees %d/%d peers live after rejoin", i, st.Live, st.Peers)
	}

	// Correctness: every corpus file re-served by a survivor AND by the
	// restarted victim matches the reference model byte for byte.
	for _, idx := range []int{0, victim} {
		n := nodes[idx]
		if n == nil {
			addGate(false, "replica %d is not running after the chaos run", idx)
			continue
		}
		diverged := 0
		for i, src := range corpus {
			got, err := analyzeOnce(n.base, src)
			if err != nil {
				addGate(false, "replica %d failed to serve file %d post-chaos: %v", idx, i, err)
				diverged = -1
				break
			}
			if got != reference[i] {
				diverged++
			}
		}
		if diverged >= 0 {
			addGate(diverged == 0, "replica %d post-chaos divergence: %d/%d files differ from local recompute", idx, diverged, len(corpus))
		}
	}

	// Recovery: the restarted victim's cold cache came back from its
	// co-owners — the verification pass above must have produced peer
	// hits, not wholesale recomputation.
	if n := nodes[victim]; n != nil {
		st := n.client.Stats()
		addGate(st.Hits > 0, "restarted replica recovered %d cache entries from peers (want > 0)", st.Hits)
		rep.Gates = append(rep.Gates, fmt.Sprintf(
			"info: restarted replica peer stats: hits=%d misses=%d errors=%d retries=%d",
			st.Hits, st.Misses, st.Errors, st.Retries))
	}
	return failed
}

// boot starts (or restarts, on its original address) replica i: a fresh
// engine from the shared checkpoint — a restart deliberately loses the
// in-memory cache — plus its peer client and HTTP server.
func (f *chaosFleet) boot(i int) (*chaosNode, error) {
	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath: f.ckpt, Quiet: true, CacheSize: 4096,
	})
	if err != nil {
		return nil, err
	}
	var peers []string
	for j, u := range f.urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	var transport http.RoundTripper
	if f.inj != nil {
		transport = f.inj.Transport(nil)
	}
	client, err := peercache.New(peercache.Config{
		Self:          f.urls[i],
		Peers:         peers,
		Fingerprint:   engine.Fingerprint(),
		ProbeInterval: chaosProbeInterval,
		ProbeTimeout:  chaosProbeInterval / 2,
		Transport:     transport,
	})
	if err != nil {
		return nil, err
	}
	engine.SetCacheFiller(client.Fill)
	engine.SetCacheWarmer(client.Warm)

	// On a restart the old listener may take a moment to fully release
	// the address.
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", f.addrs[i])
		if err == nil {
			break
		}
		if attempt >= 20 {
			client.Close()
			return nil, fmt.Errorf("rebinding %s: %w", f.addrs[i], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	srv := &http.Server{Handler: serve.New(engine).Handler()}
	go func() { _ = srv.Serve(ln) }()

	node := &chaosNode{engine: engine, client: client, server: srv, base: f.urls[i]}
	f.mu.Lock()
	for len(f.nodes) <= i {
		f.nodes = append(f.nodes, nil)
	}
	f.nodes[i] = node
	f.mu.Unlock()
	return node, nil
}

// kill hard-stops replica i: listener and live connections closed at
// once, exactly like a process death as the rest of the fleet sees it.
func (f *chaosFleet) kill(i int) {
	f.mu.Lock()
	node := f.nodes[i]
	f.nodes[i] = nil
	f.mu.Unlock()
	if node == nil {
		return
	}
	_ = node.server.Close()
	node.client.Close()
}

// peerStates returns the health state each running replica's peer
// client holds for base.
func (f *chaosFleet) peerStates(base string) map[int]string {
	states := map[int]string{}
	for i, n := range f.snapshot() {
		if n == nil {
			continue
		}
		for _, r := range n.client.Stats().Replicas {
			if r.Base == base {
				states[i] = r.State
			}
		}
	}
	return states
}

// snapshot returns the current node slice copy.
func (f *chaosFleet) snapshot() []*chaosNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*chaosNode(nil), f.nodes...)
}

// shutdown stops every running replica.
func (f *chaosFleet) shutdown() {
	for i := range f.snapshot() {
		f.kill(i)
	}
}

// analyzeOnce POSTs one source and returns the canonical marshalling of
// the response reports, for byte-identity comparison against the
// reference model.
func analyzeOnce(base, src string) (string, error) {
	body, _ := json.Marshal(requestBody{Source: src, ClientID: "graph2bench-chaos"})
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var parsed struct {
		Reports []graph2par.LoopReport `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		return "", err
	}
	return marshalStripped(parsed.Reports), nil
}

// marshalStripped canonicalizes reports for comparison: the server
// strips the bulky DOT rendering unless asked, so the reference side
// must too.
func marshalStripped(reports []graph2par.LoopReport) string {
	out := make([]graph2par.LoopReport, len(reports))
	copy(out, reports)
	for i := range out {
		out[i].DOT = ""
	}
	j, _ := json.Marshal(out)
	return string(j)
}
