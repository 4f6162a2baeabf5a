package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graph2par"
)

// requestEnvelope is the one request shape every v1 API endpoint accepts.
// Endpoints read the fields they need and reject the ones they cannot
// honor, so a client can keep a single serializer for the whole API.
type requestEnvelope struct {
	// Source is one C translation unit (/v1/analyze, /v1/rewrite).
	Source string `json:"source,omitempty"`
	// Files maps file name → source for /v1/analyze/batch.
	Files map[string]string `json:"files,omitempty"`
	// Options tunes the response.
	Options requestOptions `json:"options,omitempty"`
	// DeadlineMS is the client's latency budget in milliseconds, measured
	// from request receipt. It propagates as a context deadline through
	// queue admission and every engine pipeline stage; when it expires
	// the request is abandoned cooperatively (504, code
	// "deadline_exceeded") instead of burning CPU for an answer nobody is
	// waiting for. 0 means no deadline beyond the client connection
	// itself.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ClientID names the caller for per-client rate limiting. Falls back
	// to the X-Client-ID header, then to the remote address.
	ClientID string `json:"client_id,omitempty"`
}

// requestOptions is the envelope's per-request tuning block.
type requestOptions struct {
	// DOT includes each loop's Graphviz rendering in the response
	// (omitted by default: it dominates response size).
	DOT bool `json:"dot,omitempty"`
	// Verify asserts the response must carry static-verification
	// verdicts: when the server runs without -verify the request fails
	// fast with 503/"verify_disabled" instead of silently returning
	// unverified suggestions. False means "whatever the server does".
	Verify bool `json:"verify,omitempty"`
	// Rewrite asserts the response must carry rewrite plans (503/
	// "rewrite_disabled" when the stage is off). False means "whatever
	// the server does".
	Rewrite bool `json:"rewrite,omitempty"`
}

// analyzeResponse is the POST /v1/analyze result.
type analyzeResponse struct {
	Loops   int                    `json:"loops"`
	Reports []graph2par.LoopReport `json:"reports"`
}

// batchResponse is the POST /v1/analyze/batch result. Files that fail to
// parse are absent from Results and described in ParseErrors.
type batchResponse struct {
	Results     map[string][]graph2par.LoopReport `json:"results"`
	ParseErrors string                            `json:"parseErrors,omitempty"`
}

// rewriteResponse is the POST /v1/rewrite result: the transformed source
// (equal to the input when no loop was accepted) and the reports whose
// Rewrite plans carry the final splice-checked statuses.
type rewriteResponse struct {
	Changed bool                   `json:"changed"`
	Output  string                 `json:"output"`
	Reports []graph2par.LoopReport `json:"reports"`
}

// The stable machine-readable error codes of the v1 error envelope.
const (
	codeBadRequest      = "bad_request"
	codeBodyTooLarge    = "body_too_large"
	codeUnsupportedType = "unsupported_media_type"
	codeMethod          = "method_not_allowed"
	codeRateLimited     = "rate_limited"
	codeOverloaded      = "overloaded"
	codeDeadline        = "deadline_exceeded"
	codeCanceled        = "canceled"
	codeUnparsable      = "unparsable_source"
	codeVerifyDisabled  = "verify_disabled"
	codeRewriteDisabled = "rewrite_disabled"
	codeNotFound        = "not_found"
	codeFingerprint     = "fingerprint_mismatch"
	codeCacheDisabled   = "cache_disabled"
)

// FingerprintHeader carries the pushing replica's model fingerprint on
// warm pushes (POST /v1/cache/<key>, sent by internal/peercache). Only a
// push whose fingerprint matches this replica's own is accepted, so a
// misconfigured fleet (mixed checkpoints) can never cross-pollinate
// caches.
const FingerprintHeader = "X-Graph2Par-Fingerprint"

// errorEnvelope is the one error shape every v1 endpoint emits.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code is a stable machine-readable identifier (see the code*
	// constants); Message is human-readable detail.
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable tells the client whether the same request can succeed
	// later without modification (shed, rate-limited, deadline).
	Retryable bool `json:"retryable"`
}

// apiError pairs the wire envelope with its transport metadata.
type apiError struct {
	status     int
	code       string
	message    string
	retryable  bool
	retryAfter time.Duration // > 0 → Retry-After header, in ceil seconds
	allow      string        // non-empty → Allow header (405s)
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: codeBadRequest, message: fmt.Sprintf(format, args...)}
}

func notAllowed(allow string) *apiError {
	return &apiError{
		status: http.StatusMethodNotAllowed, code: codeMethod,
		message: "method not allowed (allowed: " + allow + ")", allow: allow,
	}
}

// engineError maps an Engine failure onto the wire: a context deadline
// becomes a retryable 504, a canceled request a retryable 499 (the
// client is usually gone; the status is for the access log), anything
// else is the engine's own parse/analysis refusal (422).
func engineError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{
			status: http.StatusGatewayTimeout, code: codeDeadline,
			message: "deadline exceeded before analysis completed", retryable: true,
		}
	case errors.Is(err, context.Canceled):
		// 499: nginx's "client closed request" — non-standard but the
		// conventional spelling for this situation.
		return &apiError{status: 499, code: codeCanceled, message: "request canceled", retryable: true}
	default:
		return &apiError{status: http.StatusUnprocessableEntity, code: codeUnparsable, message: err.Error()}
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if code >= 400 {
		s.errorReqs.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error envelope plus its transport
// headers (Retry-After, Allow).
func (s *Server) writeError(w http.ResponseWriter, ae *apiError) {
	if ae.retryAfter > 0 {
		secs := int64(math.Ceil(ae.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	if ae.allow != "" {
		w.Header().Set("Allow", ae.allow)
	}
	s.writeJSON(w, ae.status, errorEnvelope{Error: errorDetail{
		Code: ae.code, Message: ae.message, Retryable: ae.retryable,
	}})
}

// checkMethod guards a handler's method set (the shared 405 path).
func checkMethod(r *http.Request, allowed ...string) *apiError {
	for _, m := range allowed {
		if r.Method == m {
			return nil
		}
	}
	return notAllowed(strings.Join(allowed, ", "))
}

// checkContentType enforces application/json on body-carrying requests
// (the shared 415 path). An absent Content-Type is rejected too: the
// decoder should never have to guess an encoding.
func checkContentType(r *http.Request) *apiError {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != "application/json" {
		return &apiError{
			status: http.StatusUnsupportedMediaType, code: codeUnsupportedType,
			message: fmt.Sprintf("Content-Type %q is not supported; send application/json", ct),
		}
	}
	return nil
}

// decodeEnvelope strictly decodes the request body under the configured
// size cap, translating the failure modes into pointed envelope errors.
// The body must hold exactly one JSON object: unknown fields and anything
// but whitespace after the envelope are rejected.
func (s *Server) decodeEnvelope(w http.ResponseWriter, r *http.Request, env *requestEnvelope) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(env)
	if err == nil {
		err = expectEOF(dec)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge, code: codeBodyTooLarge,
				message: fmt.Sprintf("request body exceeds the %d-byte cap", tooLarge.Limit),
			}
		}
		return &apiError{status: http.StatusBadRequest, code: codeBadRequest,
			message: fmt.Sprintf("malformed request body: %v", err)}
	}
	if env.DeadlineMS < 0 {
		return badRequest("deadline_ms must be >= 0, got %d", env.DeadlineMS)
	}
	if env.Options.Verify && !s.engine.VerifyEnabled() {
		return &apiError{status: http.StatusServiceUnavailable, code: codeVerifyDisabled,
			message: "options.verify requested but the verification stage is disabled (start graph2serve with -verify)"}
	}
	if env.Options.Rewrite && !s.engine.RewriteEnabled() {
		return &apiError{status: http.StatusServiceUnavailable, code: codeRewriteDisabled,
			message: "options.rewrite requested but the rewrite stage is disabled (start graph2serve with -rewrite)"}
	}
	return nil
}

// expectEOF fails unless only whitespace follows the value dec has just
// decoded. Decode stops at the end of the first JSON value, so without
// this check a body such as `{"source":"a"} junk` or two concatenated
// envelopes would be served as its first envelope alone. A read error
// (such as the body cap) is returned as is.
func expectEOF(dec *json.Decoder) error {
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	if err == nil {
		err = errors.New("unexpected data after the request envelope")
	}
	return err
}

// clientID resolves the rate-limit key: the envelope's client_id, else
// the X-Client-ID header, else the connection's remote host.
func clientID(r *http.Request, env *requestEnvelope) string {
	if env.ClientID != "" {
		return env.ClientID
	}
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// endpoint assembles the shared ingress pipeline around one API handler:
// method guard → media-type guard → bounded decode → per-client rate
// limit → deadline context → queue admission → handler. Every rejection
// on the way in uses the structured error envelope, and the handler runs
// with a context that ends at the client's deadline_ms (or when the
// client disconnects), which the engine honors between pipeline stages.
func (s *Server) endpoint(counter *atomic.Uint64, h func(ctx context.Context, env *requestEnvelope) (any, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		if ae := checkMethod(r, http.MethodPost); ae != nil {
			s.writeError(w, ae)
			return
		}
		if ae := checkContentType(r); ae != nil {
			s.writeError(w, ae)
			return
		}
		var env requestEnvelope
		if ae := s.decodeEnvelope(w, r, &env); ae != nil {
			s.writeError(w, ae)
			return
		}
		if s.limiter != nil {
			if ok, wait := s.limiter.allow(clientID(r, &env), time.Now()); !ok {
				s.writeError(w, &apiError{
					status: http.StatusTooManyRequests, code: codeRateLimited,
					message: "per-client rate limit exceeded", retryable: true, retryAfter: wait,
				})
				return
			}
		}
		ctx := r.Context()
		if env.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(env.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		if s.admission != nil {
			release, err := s.admission.admit(ctx)
			if err != nil {
				switch {
				case errors.Is(err, errOverloaded):
					s.writeError(w, &apiError{
						status: http.StatusTooManyRequests, code: codeOverloaded,
						message:   "admission queue is full; request shed",
						retryable: true, retryAfter: s.retryAfter,
					})
				default:
					s.writeError(w, engineError(err))
				}
				return
			}
			defer release()
		}
		resp, ae := h(ctx, &env)
		if ae != nil {
			s.writeError(w, ae)
			return
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// stripDOT blanks the bulky DOT field unless the client asked for it.
func stripDOT(reports []graph2par.LoopReport, keep bool) []graph2par.LoopReport {
	if keep {
		return reports
	}
	out := make([]graph2par.LoopReport, len(reports))
	copy(out, reports)
	for i := range out {
		out[i].DOT = ""
	}
	return out
}

// analyzeAPI is POST /v1/analyze.
func (s *Server) analyzeAPI(ctx context.Context, env *requestEnvelope) (any, *apiError) {
	if env.Source == "" {
		return nil, badRequest("missing \"source\"")
	}
	if len(env.Files) > 0 {
		return nil, badRequest("\"files\" is not accepted by /v1/analyze; use /v1/analyze/batch")
	}
	reports, err := s.engine.AnalyzeSourceContext(ctx, env.Source)
	if err != nil {
		return nil, engineError(err)
	}
	return analyzeResponse{Loops: len(reports), Reports: stripDOT(reports, env.Options.DOT)}, nil
}

// batchAPI is POST /v1/analyze/batch.
func (s *Server) batchAPI(ctx context.Context, env *requestEnvelope) (any, *apiError) {
	if len(env.Files) == 0 {
		return nil, badRequest("missing \"files\"")
	}
	if env.Source != "" {
		return nil, badRequest("\"source\" is not accepted by /v1/analyze/batch; use \"files\"")
	}
	results, err := s.engine.AnalyzeFilesContext(ctx, env.Files)
	if err != nil && len(results) == 0 {
		// Every file failed to parse (or the request was cut short): same
		// contract as /v1/analyze.
		return nil, engineError(err)
	}
	resp := batchResponse{Results: make(map[string][]graph2par.LoopReport, len(results))}
	for name, reports := range results {
		resp.Results[name] = stripDOT(reports, env.Options.DOT)
	}
	if err != nil {
		// Partial failure: parsable files were analyzed, the rest are
		// reported per file in one deterministic message.
		resp.ParseErrors = err.Error()
	}
	return resp, nil
}

// rewriteAPI is POST /v1/rewrite.
func (s *Server) rewriteAPI(ctx context.Context, env *requestEnvelope) (any, *apiError) {
	if !s.engine.RewriteEnabled() {
		return nil, &apiError{status: http.StatusServiceUnavailable, code: codeRewriteDisabled,
			message: "rewrite stage disabled (start graph2serve with -rewrite)"}
	}
	if env.Source == "" {
		return nil, badRequest("missing \"source\"")
	}
	if len(env.Files) > 0 {
		return nil, badRequest("\"files\" is not accepted by /v1/rewrite")
	}
	res, err := s.engine.RewriteSourceContext(ctx, env.Source)
	if err != nil {
		return nil, engineError(err)
	}
	return rewriteResponse{
		Changed: res.Changed,
		Output:  res.Output,
		Reports: stripDOT(res.Reports, env.Options.DOT),
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if ae := checkMethod(r, http.MethodGet, http.MethodHead); ae != nil {
		s.writeError(w, ae)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleCacheKey is /v1/cache/<key> — both sides of the peer cache
// protocol. The key is a loop's content-addressed cache key (64 hex
// chars).
//
// GET is the pull side: a hit returns the raw cached LoopReport exactly
// as a local cache hit would have produced it, a miss is 404 and the
// asking replica recomputes locally. The lookup is stat-neutral on the
// local cache (Engine.PeekCached) so peer traffic cannot distort this
// replica's own hit/miss telemetry.
//
// POST is the push side (replication warming): a co-owning replica that
// computed the key's report sends it here so this replica holds the
// shard too. The push must carry the sender's model fingerprint and it
// must match this replica's own — keys embed the fingerprint, so a
// mismatched push could never be served anyway, and the match doubles
// as authentication (only a process running the same weights knows the
// value). Accepted reports are installed stat-neutrally
// (Engine.InstallCached).
//
// Both verbs bypass rate limiting and admission control: they are
// memory operations between replicas, not analysis work.
func (s *Server) handleCacheKey(w http.ResponseWriter, r *http.Request) {
	if ae := checkMethod(r, http.MethodGet, http.MethodPost); ae != nil {
		s.writeError(w, ae)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !validCacheKey(key) {
		if r.Method == http.MethodPost {
			s.cacheWarmRej.Add(1)
		}
		s.writeError(w, badRequest("malformed cache key %q (want 64 hex characters)", key))
		return
	}
	if r.Method == http.MethodPost {
		s.handleCacheWarm(w, r, key)
		return
	}
	report, ok := s.engine.PeekCached(key)
	if !ok {
		s.cacheNotFound.Add(1)
		s.writeError(w, &apiError{status: http.StatusNotFound, code: codeNotFound,
			message: "key not cached on this replica"})
		return
	}
	s.cacheServed.Add(1)
	s.writeJSON(w, http.StatusOK, report)
}

// handleCacheWarm is the POST branch of /v1/cache/<key>.
func (s *Server) handleCacheWarm(w http.ResponseWriter, r *http.Request, key string) {
	if ae := checkContentType(r); ae != nil {
		s.cacheWarmRej.Add(1)
		s.writeError(w, ae)
		return
	}
	got := r.Header.Get(FingerprintHeader)
	if want := s.engine.Fingerprint(); got == "" || got != want {
		s.cacheWarmRej.Add(1)
		s.writeError(w, &apiError{status: http.StatusForbidden, code: codeFingerprint,
			message: "warm push fingerprint does not match this replica's model"})
		return
	}
	var report graph2par.LoopReport
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&report); err != nil {
		s.cacheWarmRej.Add(1)
		s.writeError(w, badRequest("malformed warm push body: %v", err))
		return
	}
	if !s.engine.InstallCached(key, report) {
		s.cacheWarmRej.Add(1)
		s.writeError(w, &apiError{status: http.StatusServiceUnavailable, code: codeCacheDisabled,
			message: "this replica runs without a result cache"})
		return
	}
	s.cacheWarmed.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// validCacheKey accepts exactly the engine's key shape: 64 lower-case
// hex characters (a sha256).
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
