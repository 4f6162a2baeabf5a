// Package serve implements the graph2serve HTTP JSON API over a shared
// graph2par.Engine: one long-running warm model serves concurrent analyze
// requests, with the engine's content-addressed cache giving repeat
// queries sub-millisecond latency. Each /v1/analyze request is one
// Engine.AnalyzeSourceContext call; the engine packs that request's loops
// into shared batched-inference passes.
//
// The v1 API (one uniform request envelope, one structured error
// envelope — see api.go):
//
//	POST /v1/analyze        {"source": "...", "options": {"dot": false}, "deadline_ms": 0, "client_id": ""}
//	POST /v1/analyze/batch  {"files": {"a.c": "..."}, ...}
//	POST /v1/rewrite        {"source": "...", ...}
//	GET  /v1/healthz        liveness probe
//	GET  /v1/stats          cache, admission, rate-limit, peer and request counters
//	GET  /v1/cache/<key>    raw cached loop report by content-addressed key (peer cache pull)
//	POST /v1/cache/<key>    install a replicated loop report, fingerprint-authenticated (peer cache push)
//
// Any other path is a 404 with code "not_found".
//
// Production ingress hygiene is uniform across the API endpoints:
// requests must be application/json (415), bodies are capped (413),
// wrong methods get a 405 with an Allow header, per-client token buckets
// rate-limit by client id (429 + Retry-After), a bounded admission queue
// sheds load once the configured watermark is exceeded (429 +
// Retry-After), and client-supplied deadlines propagate as
// context.Context through the engine so a dead request stops burning CPU
// at the next pipeline stage boundary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"graph2par"
)

// DefaultMaxBody bounds request bodies when ServeConfig.MaxBody is left
// zero (source code is small; this mostly guards the decoder against
// junk).
const DefaultMaxBody = 16 << 20

// DefaultRetryAfter is the Retry-After hint on shed responses when
// ServeConfig.RetryAfter is left zero.
const DefaultRetryAfter = time.Second

// PeerStats is the peer-fill client's counter snapshot: the value
// internal/peercache's Client.Stats returns, supplied through
// ServeConfig.PeerStats so /v1/stats can report the cluster tier without
// this package importing the peer client.
type PeerStats struct {
	// Peers is the replica-list size (self excluded); Live is how many
	// of them currently participate in ownership (healthy or suspect).
	Peers, Live int
	// Hits counts misses served from the owning replica's cache;
	// Misses counts peer lookups that came back empty (local recompute
	// followed); Errors counts failed peer exchanges (network, decode —
	// also followed by local recompute).
	Hits, Misses, Errors uint64
	// NegativeHits counts pulls suppressed by the negative-result TTL;
	// Retries counts exchanges with a lower-ranked owner after the
	// owner above it missed or failed.
	NegativeHits, Retries uint64
	// WarmsSent/WarmErrors/WarmDropped count the push-replication side.
	WarmsSent, WarmErrors, WarmDropped uint64
	// Replicas is the per-peer health state.
	Replicas []PeerReplica
}

// PeerReplica is one remote replica's observable fault-tolerance state.
type PeerReplica struct {
	Base     string `json:"base"`
	State    string `json:"state"` // healthy | suspect | down | probing
	Failures int    `json:"failures"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Errors   uint64 `json:"errors"`
	Warms    uint64 `json:"warms"`
}

// ServeConfig tunes the server's request handling.
type ServeConfig struct {
	// MaxBody caps request-body bytes (0 means DefaultMaxBody). Larger
	// bodies get 413 with code "body_too_large".
	MaxBody int64

	// MaxInflight > 0 enables admission control: at most this many API
	// requests are processed concurrently, at most MaxQueue more wait for
	// a slot, and requests beyond that watermark are shed with 429 +
	// Retry-After instead of queueing without bound. 0 disables admission
	// control.
	MaxInflight int
	// MaxQueue is the admission-queue watermark (only meaningful with
	// MaxInflight > 0; 0 means shed as soon as every slot is busy).
	MaxQueue int
	// RetryAfter is the hint sent with shed responses (0 means
	// DefaultRetryAfter).
	RetryAfter time.Duration

	// RatePerSec > 0 enables per-client token-bucket rate limiting keyed
	// on the client id (envelope client_id, else the X-Client-ID header,
	// else the remote address): each client earns RatePerSec tokens per
	// second up to RateBurst (0 means RatePerSec, min 1) and each API
	// request spends one. Over-limit requests get 429 with code
	// "rate_limited" and a Retry-After naming the next token's arrival.
	RatePerSec float64
	RateBurst  float64

	// PeerStats, when set, feeds the /v1/stats peer section with the
	// peer-fill client's counters (see graph2par.Engine.SetCacheFiller
	// and internal/peercache).
	PeerStats func() PeerStats
}

// Server carries the shared engine and request counters.
type Server struct {
	engine    *graph2par.Engine
	started   time.Time
	admission *admission   // nil when admission control is disabled
	limiter   *rateLimiter // nil when rate limiting is disabled

	maxBody    int64
	retryAfter time.Duration
	peerStats  func() PeerStats

	analyzeReqs   atomic.Uint64
	batchReqs     atomic.Uint64
	rewriteReqs   atomic.Uint64
	errorReqs     atomic.Uint64
	cacheServed   atomic.Uint64 // /v1/cache/<key> hits served to peers
	cacheNotFound atomic.Uint64
	cacheWarmed   atomic.Uint64 // warm pushes accepted into the local cache
	cacheWarmRej  atomic.Uint64 // warm pushes rejected (bad fingerprint, no cache)
}

// New wraps an engine for serving with admission control and rate
// limiting disabled.
func New(engine *graph2par.Engine) *Server {
	return NewWithConfig(engine, ServeConfig{})
}

// NewWithConfig wraps an engine for serving.
func NewWithConfig(engine *graph2par.Engine, cfg ServeConfig) *Server {
	s := &Server{
		engine:     engine,
		started:    time.Now(),
		maxBody:    cfg.MaxBody,
		retryAfter: cfg.RetryAfter,
		peerStats:  cfg.PeerStats,
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBody
	}
	if s.retryAfter <= 0 {
		s.retryAfter = DefaultRetryAfter
	}
	if cfg.MaxInflight > 0 {
		s.admission = newAdmission(cfg.MaxInflight, cfg.MaxQueue)
	}
	if cfg.RatePerSec > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = cfg.RatePerSec
		}
		s.limiter = newRateLimiter(cfg.RatePerSec, burst)
	}
	return s
}

// Close is a no-op kept for callers that register it as an
// http.Server.RegisterOnShutdown hook (the perfbench harness does). The
// server holds no per-request state outside the handlers themselves, so a
// graceful http.Server.Shutdown drains it completely on its own.
func (s *Server) Close() {}

// Handler returns the routed HTTP handler for the /v1 route family.
// Every other path gets a 404 in the same error envelope as any other
// failure, so clients can read it by code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.endpoint(&s.analyzeReqs, s.analyzeAPI))
	mux.HandleFunc("/v1/analyze/batch", s.endpoint(&s.batchReqs, s.batchAPI))
	mux.HandleFunc("/v1/rewrite", s.endpoint(&s.rewriteReqs, s.rewriteAPI))
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/cache/", s.handleCacheKey)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, &apiError{status: http.StatusNotFound, code: codeNotFound,
			message: "no such route: " + r.URL.Path})
	})
	return mux
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	UptimeSeconds float64       `json:"uptimeSeconds"`
	Workers       int           `json:"workers"`
	Requests      reqStats      `json:"requests"`
	Admission     admissionInfo `json:"admission"`
	RateLimit     rateLimitInfo `json:"rateLimit"`
	Cache         cacheStats    `json:"cache"`
	Peer          peerInfo      `json:"peer"`
	Verify        verifyInfo    `json:"verify"`
	Rewrite       rewriteInfo   `json:"rewrite"`
}

// admissionInfo reports the load-shedding tier: live queue depths and how
// many requests were admitted versus shed since start. Shedding engaging
// under overload (shed > 0 while inflight pins at maxInflight) is the
// designed behaviour — the alternative is unbounded queue growth.
type admissionInfo struct {
	Enabled     bool   `json:"enabled"`
	MaxInflight int    `json:"maxInflight,omitempty"`
	MaxQueue    int    `json:"maxQueue,omitempty"`
	Inflight    int    `json:"inflight"`
	Queued      int    `json:"queued"`
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
}

// rateLimitInfo reports the per-client token-bucket tier.
type rateLimitInfo struct {
	Enabled    bool    `json:"enabled"`
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
	Clients    int     `json:"clients"`
	Limited    uint64  `json:"limited"`
}

// peerInfo reports the peer-fill cache tier from both sides: as a client
// (pulls against owning replicas, with the fault-tolerance machinery's
// counters and each peer's health state) and as an owner (cache
// lookups served to — or 404ed for — other replicas, warm pushes
// accepted or rejected).
type peerInfo struct {
	Enabled      bool          `json:"enabled"`
	Peers        int           `json:"peers,omitempty"`
	Live         int           `json:"live,omitempty"`
	Hits         uint64        `json:"hits"`
	Misses       uint64        `json:"misses"`
	Errors       uint64        `json:"errors"`
	NegativeHits uint64        `json:"negativeHits,omitempty"`
	Retries      uint64        `json:"retries,omitempty"`
	WarmsSent    uint64        `json:"warmsSent,omitempty"`
	WarmErrors   uint64        `json:"warmErrors,omitempty"`
	WarmDropped  uint64        `json:"warmDropped,omitempty"`
	Served       uint64        `json:"served"`
	NotFound     uint64        `json:"notFound"`
	Warmed       uint64        `json:"warmed,omitempty"`
	WarmRejected uint64        `json:"warmRejected,omitempty"`
	Replicas     []PeerReplica `json:"replicas,omitempty"`
}

// rewriteInfo reports the source-to-source stage: whether predicted-
// parallel loops get rewrite plans, and how many plans of each status
// have been issued (cache hits replay their stored plan without
// re-counting).
type rewriteInfo struct {
	Enabled    bool   `json:"enabled"`
	Rewritten  uint64 `json:"rewritten"`
	Atomic     uint64 `json:"atomic"`
	Suggestion uint64 `json:"suggestion"`
}

// verifyInfo reports the static verification stage: whether suggestions
// carry verdicts, and how many of each lattice level have been issued
// (cache hits replay their stored verdict without re-counting).
type verifyInfo struct {
	Enabled bool   `json:"enabled"`
	Safe    uint64 `json:"safe"`
	Unknown uint64 `json:"unknown"`
	Unsafe  uint64 `json:"unsafe"`
}

type reqStats struct {
	Analyze uint64 `json:"analyze"`
	Batch   uint64 `json:"batch"`
	Rewrite uint64 `json:"rewrite"`
	Errors  uint64 `json:"errors"`
}

type cacheStats struct {
	Enabled   bool   `json:"enabled"`
	Capacity  int    `json:"capacity,omitempty"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if ae := checkMethod(r, http.MethodGet); ae != nil {
		s.writeError(w, ae)
		return
	}
	resp := statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.engine.Workers(),
		Requests: reqStats{
			Analyze: s.analyzeReqs.Load(),
			Batch:   s.batchReqs.Load(),
			Rewrite: s.rewriteReqs.Load(),
			Errors:  s.errorReqs.Load(),
		},
	}
	if s.admission != nil {
		inflight, queued, admitted, shed := s.admission.snapshot()
		resp.Admission = admissionInfo{
			Enabled:     true,
			MaxInflight: cap(s.admission.slots),
			MaxQueue:    int(s.admission.maxQueue),
			Inflight:    inflight,
			Queued:      queued,
			Admitted:    admitted,
			Shed:        shed,
		}
	}
	if s.limiter != nil {
		clients, limited := s.limiter.snapshot()
		resp.RateLimit = rateLimitInfo{
			Enabled:    true,
			RatePerSec: s.limiter.rate,
			Burst:      s.limiter.burst,
			Clients:    clients,
			Limited:    limited,
		}
	}
	if st, ok := s.engine.CacheStats(); ok {
		resp.Cache = cacheStats{
			Enabled: true, Capacity: st.Capacity, Entries: st.Entries,
			Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		}
	}
	resp.Peer = peerInfo{
		Served:       s.cacheServed.Load(),
		NotFound:     s.cacheNotFound.Load(),
		Warmed:       s.cacheWarmed.Load(),
		WarmRejected: s.cacheWarmRej.Load(),
	}
	if s.peerStats != nil {
		ps := s.peerStats()
		resp.Peer.Enabled = true
		resp.Peer.Peers = ps.Peers
		resp.Peer.Live = ps.Live
		resp.Peer.Hits = ps.Hits
		resp.Peer.Misses = ps.Misses
		resp.Peer.Errors = ps.Errors
		resp.Peer.NegativeHits = ps.NegativeHits
		resp.Peer.Retries = ps.Retries
		resp.Peer.WarmsSent = ps.WarmsSent
		resp.Peer.WarmErrors = ps.WarmErrors
		resp.Peer.WarmDropped = ps.WarmDropped
		resp.Peer.Replicas = ps.Replicas
	}
	if st, ok := s.engine.VerifyStats(); ok {
		resp.Verify = verifyInfo{
			Enabled: true, Safe: st.Safe, Unknown: st.Unknown, Unsafe: st.Unsafe,
		}
	}
	if st, ok := s.engine.RewriteStats(); ok {
		resp.Rewrite = rewriteInfo{
			Enabled: true, Rewritten: st.Rewritten, Atomic: st.Atomic, Suggestion: st.Suggestion,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ListenAndServe runs srv until ctx is canceled (e.g. by SIGINT/SIGTERM
// via signal.NotifyContext), then drains in-flight requests for up to
// grace. It returns nil on a clean shutdown.
func ListenAndServe(ctx context.Context, srv *http.Server, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // bind failure or unexpected server stop
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
