// Package faultinject deterministically injects transport- and
// handler-level failures into HTTP exchanges so the fleet's
// fault-tolerance machinery (the per-peer health state machine, owner
// fallback, replication) can be exercised — and its guarantees
// asserted — in ordinary unit tests and in the graph2bench -chaos
// harness, instead of waiting for production to produce the failures.
//
// An Injector wraps either side of an exchange:
//
//   - Transport(base) returns an http.RoundTripper that may delay,
//     time out, 5xx, drop or partition a request before (or instead of)
//     forwarding it to base — the client-side view of a sick network or
//     peer.
//   - Handler(next) returns an http.Handler that may delay, 5xx or
//     abort a request before next sees it — the server-side view of an
//     overloaded or crashing replica.
//
// Fault decisions come from a seeded counter-based generator
// (splitmix64 over seed ^ request-index), so a given seed and request
// sequence always injects the same faults: a chaos run is reproducible
// by its seed, and a test that asserts "the 3rd exchange fails" keeps
// asserting the same thing forever. Partitions are explicit state
// (Partition/Heal) rather than schedule-driven, because tests want to
// cut a specific link at a specific point in the scenario.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Latency delays the exchange by Rule.Delay, then lets it proceed.
	Latency Kind = iota
	// Timeout blocks until the request's context gives up (or Rule.Delay
	// elapses, when set), then fails with a timeout error — the
	// slow-peer-that-never-answers failure mode.
	Timeout
	// Err5xx answers with Rule.Status (default 500) and an empty body.
	Err5xx
	// Drop fails the exchange abruptly: a transport error client-side, an
	// aborted connection server-side — the crashed-mid-response mode.
	Drop
	numKinds int = iota
)

// String names a kind for counters and logs.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Timeout:
		return "timeout"
	case Err5xx:
		return "err5xx"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule matches a slice of traffic and injects one fault kind at a rate.
type Rule struct {
	// Host restricts the rule to requests whose URL host equals this
	// ("" matches every host). Handler-side, the request's Host header
	// is matched instead.
	Host string
	// Path restricts the rule to URL paths with this prefix ("" matches
	// every path).
	Path string
	// Kind is the fault to inject when the rule fires.
	Kind Kind
	// Rate is the per-matching-request firing probability in [0, 1];
	// 1 fires on every match.
	Rate float64
	// Delay parameterizes Latency (added delay) and Timeout (how long the
	// injected hang lasts before failing; 0 hangs until the request's
	// context expires).
	Delay time.Duration
	// Status is the Err5xx response code (0 means 500).
	Status int
}

// Counts is a snapshot of how many faults of each kind an Injector has
// injected, plus how many requests passed through untouched.
type Counts struct {
	Latency, Timeout, Err5xx, Drop, Partitioned, Passed uint64
}

// Injector decides, per request, whether to inject a fault. Safe for
// concurrent use.
type Injector struct {
	seed uint64
	n    atomic.Uint64 // request index: one deterministic draw per request

	mu          sync.RWMutex
	rules       []Rule
	partitioned map[string]struct{}

	injected    [numKinds]atomic.Uint64
	partitions  atomic.Uint64
	passthrough atomic.Uint64
}

// New builds an injector with a deterministic seed and an initial rule
// set (rules are consulted in order; the first that matches and fires
// wins).
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:        seed,
		rules:       rules,
		partitioned: make(map[string]struct{}),
	}
}

// SetRules replaces the rule set (e.g. between chaos phases).
func (in *Injector) SetRules(rules ...Rule) {
	in.mu.Lock()
	in.rules = append([]Rule(nil), rules...)
	in.mu.Unlock()
}

// Partition cuts every future exchange with host (exact host:port
// match): transport-side they fail like an unreachable network. It
// models a network partition, so it is explicit state, not a sampled
// rule — tests cut and heal specific links at specific scenario points.
func (in *Injector) Partition(host string) {
	in.mu.Lock()
	in.partitioned[host] = struct{}{}
	in.mu.Unlock()
}

// Heal reconnects a partitioned host.
func (in *Injector) Heal(host string) {
	in.mu.Lock()
	delete(in.partitioned, host)
	in.mu.Unlock()
}

// Counts snapshots the injection counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Latency:     in.injected[Latency].Load(),
		Timeout:     in.injected[Timeout].Load(),
		Err5xx:      in.injected[Err5xx].Load(),
		Drop:        in.injected[Drop].Load(),
		Partitioned: in.partitions.Load(),
		Passed:      in.passthrough.Load(),
	}
}

// ErrDrop is the transport error of an injected dropped connection.
var ErrDrop = errors.New("faultinject: connection dropped")

// ErrPartitioned is the transport error of an injected partition.
var ErrPartitioned = errors.New("faultinject: host partitioned")

// timeoutError implements net.Error's Timeout contract so callers that
// special-case timeouts (http.Client) classify the injected hang
// exactly like a real one.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultinject: injected timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// splitmix64 is the counter-based generator behind fault decisions:
// a full-avalanche mix of (seed ^ index) gives an independent uniform
// draw per request with no shared mutable generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide draws this request's fate: the matched firing rule, or nil to
// pass through. One draw per request keeps the schedule deterministic
// in the request sequence regardless of how many rules are installed.
func (in *Injector) decide(host, path string) *Rule {
	draw := splitmix64(in.seed ^ in.n.Add(1))
	// Uniform in [0, 1) from the top 53 bits.
	u := float64(draw>>11) / float64(1<<53)
	in.mu.RLock()
	defer in.mu.RUnlock()
	for i := range in.rules {
		r := &in.rules[i]
		if r.Host != "" && r.Host != host {
			continue
		}
		if r.Path != "" && !strings.HasPrefix(path, r.Path) {
			continue
		}
		if u < r.Rate {
			rc := *r
			return &rc
		}
	}
	return nil
}

// isPartitioned reports whether host's link is currently cut.
func (in *Injector) isPartitioned(host string) bool {
	in.mu.RLock()
	_, cut := in.partitioned[host]
	in.mu.RUnlock()
	return cut
}

// sleepCtx waits d or until ctx is done, reporting whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// transport is the client-side wrapper.
type transport struct {
	in   *Injector
	base http.RoundTripper
}

// Transport wraps base (nil means http.DefaultTransport) with the
// injector: requests may be delayed, timed out, answered 5xx, dropped
// or refused by a partition before base ever sees them.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if t.in.isPartitioned(host) {
		t.in.partitions.Add(1)
		return nil, fmt.Errorf("dial %s: %w", host, ErrPartitioned)
	}
	r := t.in.decide(host, req.URL.Path)
	if r == nil {
		t.in.passthrough.Add(1)
		return t.base.RoundTrip(req)
	}
	t.in.injected[r.Kind].Add(1)
	switch r.Kind {
	case Latency:
		if !sleepCtx(req.Context(), r.Delay) {
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case Timeout:
		if r.Delay > 0 {
			sleepCtx(req.Context(), r.Delay)
		} else {
			<-req.Context().Done()
		}
		return nil, timeoutError{}
	case Err5xx:
		status := r.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		// The request body must be consumed/closed per the RoundTripper
		// contract even when the exchange is synthesized.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    io.NopCloser(strings.NewReader("injected " + http.StatusText(status))),
			Request: req,
		}, nil
	default: // Drop
		return nil, fmt.Errorf("read %s: %w", host, ErrDrop)
	}
}

// Handler wraps next with the injector: matching requests may be
// delayed, answered 5xx, or aborted (connection torn down mid-exchange,
// which clients observe as an unexpected EOF) before next runs.
// Partitions are a transport concept and do not apply here.
func (in *Injector) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := in.decide(req.Host, req.URL.Path)
		if r == nil {
			in.passthrough.Add(1)
			next.ServeHTTP(w, req)
			return
		}
		in.injected[r.Kind].Add(1)
		switch r.Kind {
		case Latency:
			sleepCtx(req.Context(), r.Delay)
			next.ServeHTTP(w, req)
		case Timeout:
			if r.Delay > 0 {
				sleepCtx(req.Context(), r.Delay)
			} else {
				<-req.Context().Done()
			}
			panic(http.ErrAbortHandler)
		case Err5xx:
			status := r.Status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			http.Error(w, "injected "+http.StatusText(status), status)
		default: // Drop
			panic(http.ErrAbortHandler)
		}
	})
}
