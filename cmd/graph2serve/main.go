// Command graph2serve exposes the Graph2Par analysis pipeline as a
// long-running HTTP JSON service: the model is loaded (or trained) once
// at startup, then concurrent requests share the warm engine, its worker
// pool and its content-addressed analysis cache.
//
// Usage:
//
//	graph2serve [-addr :8080] [-model ckpt] [-scale 0.02] [-epochs 6]
//	            [-workers N] [-cache 4096]
//	            [-max-inflight N] [-max-queue N] [-rate R] [-burst B]
//	            [-max-body BYTES] [-peers url,url] [-self url]
//	            [-probe-interval 1s] [-replication 2] [-negative-ttl 1s]
//
// Endpoints (v1 API):
//
//	POST /v1/analyze        {"source": "...", "options": {"dot": false}, "deadline_ms": 0, "client_id": ""}
//	POST /v1/analyze/batch  {"files": {"a.c": "...", "b.c": "..."}}
//	POST /v1/rewrite        {"source": "..."} (requires -rewrite)
//	GET  /v1/healthz
//	GET  /v1/stats
//	GET  /v1/cache/<key>    replica cache-peer protocol, pull side (see -peers)
//	POST /v1/cache/<key>    replica cache-peer protocol, push side (replication warming)
//
// Scale-out: starting each replica of a fleet with the same checkpoint
// (-model), the same -verify and -rewrite flags (the cache keys name the
// enabled stages, so replicas that differ share nothing), its own -self
// URL and the other replicas under -peers turns the per-process analysis
// caches into a shared, fault-tolerant tier — a local miss asks each of
// the key's live owning replicas once
// (rendezvous hashing over the live fleet) before recomputing, locally
// computed reports replicate to the key's other owners, and one health
// state machine per peer, fed by probes and by real exchanges, takes a
// failing replica out of the ownership ring until it passes two probes.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to 10 seconds.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graph2par"
	"graph2par/internal/peercache"
	"graph2par/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "load a trained checkpoint instead of training at startup")
	scale := flag.Float64("scale", 0.02, "OMP_Serial scale factor for from-scratch training")
	epochs := flag.Int("epochs", 6, "training epochs (from-scratch only)")
	seed := flag.Uint64("seed", 1234, "training seed (from-scratch only)")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 4096, "analysis cache capacity in loop reports (0 disables)")
	maxBody := flag.Int64("max-body", 0, "max request-body bytes; larger bodies get 413 (0 = 16 MiB default)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently processed API requests (0 disables)")
	maxQueue := flag.Int("max-queue", 0, "admission queue watermark: requests waiting beyond this are shed with 429 (needs -max-inflight)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = 1s default)")
	rate := flag.Float64("rate", 0, "per-client rate limit in requests/second, keyed on client id (0 disables)")
	burst := flag.Float64("burst", 0, "per-client burst allowance for -rate (0 = same as -rate)")
	peers := flag.String("peers", "", "comma-separated base URLs of the other replicas; local cache misses ask the key's owning replica before recomputing (requires -self; peers share entries only with the same model and the same -verify and -rewrite)")
	self := flag.String("self", "", "this replica's own advertised base URL, as the peers list it (required with -peers)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-exchange timeout for peer cache fills (0 = 500ms default)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health-probe period; down peers leave the ownership ring until they re-pass two probes, so probing cannot be disabled (0 = 1s default)")
	replication := flag.Int("replication", 0, "rendezvous owner-set size per cache key: locally computed reports replicate to this many owners (0 = 2 default, 1 disables replication, negative is a usage error)")
	negativeTTL := flag.Duration("negative-ttl", 0, "per-key suppression window after a failed or empty peer fill (0 = 1s default, negative disables)")
	doVerify := flag.Bool("verify", false, "statically verify every suggested pragma; verdicts ride the response reports")
	doRewrite := flag.Bool("rewrite", false, "enable the source-to-source rewrite stage and the POST /v1/rewrite endpoint")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default; enable only on trusted networks)")
	quiet := flag.Bool("quiet", false, "suppress the training progress line")
	flag.Parse()
	if *probeInterval < 0 {
		fmt.Fprintln(os.Stderr, "graph2serve: -probe-interval must not be negative: only a passing probe readmits a down peer")
		os.Exit(2)
	}
	if *replication < 0 {
		fmt.Fprintln(os.Stderr, "graph2serve: -replication must not be negative")
		os.Exit(2)
	}

	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath:  *modelPath,
		TrainScale: *scale,
		Epochs:     *epochs,
		Seed:       *seed,
		Workers:    *workers,
		CacheSize:  *cacheSize,
		Quiet:      *quiet,
		Verify:     *doVerify,
		Rewrite:    *doRewrite,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graph2serve:", err)
		os.Exit(1)
	}

	cfg := serve.ServeConfig{
		MaxBody:     *maxBody,
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		RetryAfter:  *retryAfter,
		RatePerSec:  *rate,
		RateBurst:   *burst,
	}
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "graph2serve: -peers requires -self (this replica's own base URL)")
			os.Exit(1)
		}
		if *cacheSize <= 0 {
			fmt.Fprintln(os.Stderr, "graph2serve: -peers requires a cache (-cache > 0)")
			os.Exit(1)
		}
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		peerClient, err := peercache.New(peercache.Config{
			Self:          *self,
			Peers:         list,
			Timeout:       *peerTimeout,
			Fingerprint:   engine.Fingerprint(),
			Replication:   *replication,
			ProbeInterval: *probeInterval,
			NegativeTTL:   *negativeTTL,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "graph2serve:", err)
			os.Exit(1)
		}
		defer peerClient.Close()
		engine.SetCacheFiller(peerClient.Fill)
		engine.SetCacheWarmer(peerClient.Warm)
		cfg.PeerStats = peerClient.Stats
		if *modelPath == "" {
			fmt.Println("graph2serve: note: -peers without -model — peers only share cache entries when their fingerprints match (same -scale/-epochs/-seed, or a shared checkpoint, and the same -verify and -rewrite)")
		}
		rep := *replication
		if rep == 0 {
			rep = peercache.DefaultReplication
		}
		fmt.Printf("graph2serve: peer cache tier enabled (%d peers, replication %d, fingerprint %.12s…)\n",
			len(peerClient.Peers()), rep, engine.Fingerprint())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	server := serve.NewWithConfig(engine, cfg)
	handler := server.Handler()
	if *pprofOn {
		// Opt-in live profiling: the pprof handlers are registered on an
		// explicit mux (never the default one), so without -pprof the
		// binary exposes nothing under /debug/.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("graph2serve: pprof endpoints enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("graph2serve: listening on %s (workers=%d, cache=%d)\n",
		*addr, engine.Workers(), *cacheSize)
	if err := serve.ListenAndServe(ctx, srv, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "graph2serve:", err)
		os.Exit(1)
	}
	fmt.Println("graph2serve: shut down cleanly")
}
