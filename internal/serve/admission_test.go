package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestAdmissionFastPath checks the semaphore shape directly: maxInflight
// slots admit without queueing, the watermark sheds, release frees.
func TestAdmissionFastPath(t *testing.T) {
	a := newAdmission(2, 0)
	r1, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Both slots busy, queue watermark 0: shed immediately.
	if _, err := a.admit(context.Background()); err != errOverloaded {
		t.Fatalf("full server admit err = %v, want errOverloaded", err)
	}
	r1()
	r1() // double release must not free a second slot
	if _, err := a.admit(context.Background()); err != nil {
		t.Fatalf("after release: %v", err)
	}
	r2()
	inflight, queued, admitted, shed := a.snapshot()
	if inflight != 1 || queued != 0 || admitted != 3 || shed != 1 {
		t.Errorf("snapshot = %d inflight %d queued %d admitted %d shed", inflight, queued, admitted, shed)
	}
}

// TestAdmissionQueuedContextCancel checks a queued waiter honors its
// context: the slot never frees, the waiter's deadline does.
func TestAdmissionQueuedContextCancel(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.admit(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued admit err = %v, want DeadlineExceeded", err)
	}
	if _, queued, _, _ := a.snapshot(); queued != 0 {
		t.Errorf("queued = %d after waiter gave up, want 0", queued)
	}
}

// TestRateLimiterRefill drives the token bucket with explicit clocks.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 tokens/s, burst 2
	t0 := time.Unix(1000, 0)
	if ok, _ := l.allow("a", t0); !ok {
		t.Fatal("first request should pass on a full bucket")
	}
	if ok, _ := l.allow("a", t0); !ok {
		t.Fatal("burst of 2 should admit a second request")
	}
	ok, wait := l.allow("a", t0)
	if ok {
		t.Fatal("third instantaneous request should be limited")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("retry hint = %v, want within (0, 1s] at 2 tokens/s", wait)
	}
	// Half a second accrues one token.
	if ok, _ := l.allow("a", t0.Add(500*time.Millisecond)); !ok {
		t.Error("refilled token should admit")
	}
	// Another client is an independent bucket.
	if ok, _ := l.allow("b", t0); !ok {
		t.Error("distinct client must not share a's bucket")
	}
	clients, limited := l.snapshot()
	if clients != 2 || limited != 1 {
		t.Errorf("snapshot = %d clients %d limited, want 2 and 1", clients, limited)
	}
}

// TestRateLimiterPrune checks idle buckets are forgotten once the map is
// full, and active (partially drained) buckets are not.
func TestRateLimiterPrune(t *testing.T) {
	l := newRateLimiter(1, 1)
	t0 := time.Unix(1000, 0)
	for i := 0; i < maxTrackedClients; i++ {
		l.allow("idle"+strconv.Itoa(i), t0)
	}
	// All buckets have refilled by t1, so the next new client prunes them.
	t1 := t0.Add(time.Hour)
	l.allow("fresh", t1)
	clients, _ := l.snapshot()
	if clients != 1 {
		t.Errorf("tracked clients = %d after prune, want 1", clients)
	}
	// A drained bucket survives a prune pass.
	l.allow("fresh", t1) // empties fresh's bucket
	l.mu.Lock()
	l.prune(t1)
	n := len(l.clients)
	l.mu.Unlock()
	if n != 1 {
		t.Errorf("active bucket pruned: %d clients, want 1", n)
	}
}

// parkedServer builds the deterministic overload fixture: the test itself
// takes every admission slot (s.admission.admit), exactly as in-flight
// requests would hold them, so /v1/analyze requests queue or shed against
// a full server until the test calls the returned release.
func parkedServer(t *testing.T, cfg ServeConfig) (s *Server, ts *httptest.Server, release func()) {
	t.Helper()
	s = NewWithConfig(engine(t), cfg)
	ts = httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	release = holdSlots(t, s)
	t.Cleanup(release) // unpark anything a failing test left behind (runs before ts.Close)
	return s, ts, release
}

// holdSlots takes every admission slot of s and returns the function that
// gives them all back.
func holdSlots(t *testing.T, s *Server) func() {
	t.Helper()
	releases := make([]func(), cap(s.admission.slots))
	for i := range releases {
		r, err := s.admission.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		releases[i] = r
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}
}

// waitQueued polls until n requests wait in s's admission queue.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if _, queued, _, _ := s.admission.snapshot(); queued == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("admission queue never reached %d waiting requests", n)
}

// TestOverloadSheds is the admission tier's wire contract: once the
// inflight slots and the queue are full, further requests get 429 with
// code "overloaded", a Retry-After hint, and never a 5xx; the queued
// request completes normally once capacity frees.
func TestOverloadSheds(t *testing.T) {
	s, ts, release := parkedServer(t, ServeConfig{MaxInflight: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})

	var wg sync.WaitGroup
	var queued analyzeResponse
	var queuedCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if queuedCode, err = tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &queued); err != nil {
			t.Error(err)
		}
	}()
	waitQueued(t, s, 1)

	resp := postJSONResp(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program})
	var e errorEnvelope
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if e.Error.Code != codeOverloaded || !e.Error.Retryable {
		t.Errorf("shed envelope = %+v, want retryable %q", e.Error, codeOverloaded)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}

	release()
	wg.Wait()
	if queuedCode != http.StatusOK || queued.Loops != 4 {
		t.Errorf("queued request: status %d loops %d, want 200 and 4", queuedCode, queued.Loops)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	// Admitted counts the test's own slot plus the queued request.
	if !st.Admission.Enabled || st.Admission.Shed != 1 || st.Admission.Admitted != 2 {
		t.Errorf("admission stats = %+v, want enabled with 1 shed and 2 admitted", st.Admission)
	}
}

// TestDeadlinePropagates pins deadline_ms end to end: a budget that
// expires while the request waits for capacity produces
// 504/"deadline_exceeded" (retryable), not a hung handler and not a
// success.
func TestDeadlinePropagates(t *testing.T) {
	_, ts, _ := parkedServer(t, ServeConfig{MaxInflight: 4, MaxQueue: 4})

	start := time.Now()
	resp := postJSONResp(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program, DeadlineMS: 50})
	var e errorEnvelope
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if e.Error.Code != codeDeadline || !e.Error.Retryable {
		t.Errorf("envelope = %+v, want retryable %q", e.Error, codeDeadline)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("deadline answer took %v — the 50ms budget did not cut the wait", took)
	}
}

// TestDeadlineInAdmissionQueue checks a deadline that expires while
// waiting for an admission slot frees the queue place and answers 504,
// and that the server serves normally once capacity returns.
func TestDeadlineInAdmissionQueue(t *testing.T) {
	s, ts, release := parkedServer(t, ServeConfig{MaxInflight: 1, MaxQueue: 4})

	var e errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program, DeadlineMS: 50}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status = %d, want 504", code)
	}
	if e.Error.Code != codeDeadline {
		t.Errorf("code = %q, want %q", e.Error.Code, codeDeadline)
	}
	if _, queued, _, _ := s.admission.snapshot(); queued != 0 {
		t.Errorf("admission queue = %d after the waiter timed out, want 0", queued)
	}
	release()
	var resp analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &resp); code != http.StatusOK || resp.Loops != 4 {
		t.Errorf("after release: status %d loops %d, want 200 and 4", code, resp.Loops)
	}
}

// TestRateLimitOverHTTP pins the per-client tier: a client that exhausts
// its burst gets 429/"rate_limited" with Retry-After, while a different
// client id passes untouched.
func TestRateLimitOverHTTP(t *testing.T) {
	s := NewWithConfig(engine(t), ServeConfig{RatePerSec: 0.5, RateBurst: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(client string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
			bytes.NewReader(mustJSON(t, requestEnvelope{Source: program, ClientID: client})))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for i := 0; i < 2; i++ {
		resp := post("alice")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post("alice")
	var e errorEnvelope
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != codeRateLimited || !e.Error.Retryable {
		t.Fatalf("over-limit: status %d envelope %+v, want 429 retryable %q", resp.StatusCode, e.Error, codeRateLimited)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	other := post("bob")
	other.Body.Close()
	if other.StatusCode != http.StatusOK {
		t.Errorf("independent client limited: status %d", other.StatusCode)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if !st.RateLimit.Enabled || st.RateLimit.Limited != 1 || st.RateLimit.Clients < 2 {
		t.Errorf("rate-limit stats = %+v, want enabled, 1 limited, ≥2 clients", st.RateLimit)
	}
}

// TestShutdownUnderLoad drives the graceful-drain contract end to end on
// a real http.Server: with every admission slot held and three requests
// waiting in the admission queue, Shutdown closes the listener at once
// but waits for those requests; when the slots free mid-drain, every
// queued request is answered normally, the queue drains, and Shutdown
// returns within the grace budget — no request dropped.
func TestShutdownUnderLoad(t *testing.T) {
	s := NewWithConfig(engine(t), ServeConfig{MaxInflight: 2, MaxQueue: 4})
	release := holdSlots(t, s)
	defer release()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	codes := make([]int, 3)
	resps := make([]analyzeResponse, 3)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if codes[i], err = tryPostJSON("http://"+addr+"/v1/analyze", requestEnvelope{Source: program}, &resps[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(t, s, len(codes))

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(shutdownCtx) }()
	// The drain has begun once the listener refuses new connections.
	for i := 0; ; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if i == 500 {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned (%v) while requests were still queued", err)
	default:
	}

	release() // the in-flight work finishes mid-drain
	if err := <-shutdown; err != nil {
		t.Fatalf("graceful shutdown failed under load: %v", err)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK || resps[i].Loops != 4 {
			t.Errorf("request %d: status %d loops %d, want 200 and 4", i, code, resps[i].Loops)
		}
	}
	if inflight, queued, _, shed := s.admission.snapshot(); inflight != 0 || queued != 0 || shed != 0 {
		t.Errorf("post-drain admission: inflight=%d queued=%d shed=%d, want all zero", inflight, queued, shed)
	}
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
