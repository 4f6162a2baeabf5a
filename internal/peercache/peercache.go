// Package peercache is the client side of the replica cache-peer
// protocol: a horizontal tier that lets a fleet of graph2serve replicas
// share their content-addressed loop caches instead of each recomputing
// the same analyses.
//
// The protocol is two verbs. Every cache key (sha256 of the engine
// fingerprint — model and enabled stages — + file content + loop
// position + normalized source) has a
// ranked owner set — the top-Replication replicas by rendezvous
// (highest-random-weight) hashing over the *live* fleet — and:
//
//   - GET /v1/cache/<key> (pull): on a local miss, Fill asks the
//     key's owners in rank order; a 200 carries the raw cached
//     LoopReport (byte-identical to a local recompute, because keys
//     embed the fingerprint and replicas share a checkpoint and stages),
//     a 404 means that owner has not computed it either.
//   - POST /v1/cache/<key> (push): when this replica computes a report
//     locally, Warm replicates it to the key's other owners,
//     authenticated by the fingerprint — so an owner restart does
//     not lose its shard (the co-owner still holds it) and entries
//     computed off-owner converge back onto their owners.
//
// The fleet is fault-tolerant end to end: membership is health-checked
// (periodic /v1/healthz probes and the outcomes of real exchanges drive
// one per-peer healthy → suspect → down → probing state machine, and
// ownership is computed over live replicas only, so a dead peer's key
// space redistributes within one detection instead of taxing every miss
// with a timeout), a pull asks each live owner once in rank order with
// exponential backoff and deterministic jitter before each lower-ranked
// owner, and a short per-key negative-result TTL keeps repeated misses
// of one key from re-dialing owners that just missed or failed. All
// failures degrade to local recompute: the tier is an accelerator,
// never a dependency.
//
// Concurrent identical misses are deduplicated in-process: one peer
// exchange per key is in flight at a time, later callers wait for and
// share its result.
package peercache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graph2par"
	"graph2par/internal/serve"
)

// Defaults for the zero values of Config. They are deliberately tight:
// past them, recomputing locally is the better bet, and a slow peer
// must not stall the pipeline.
const (
	// DefaultTimeout bounds one peer exchange.
	DefaultTimeout = 500 * time.Millisecond
	// DefaultProbeInterval is the health-probe period.
	DefaultProbeInterval = time.Second
	// DefaultProbeTimeout bounds one health probe.
	DefaultProbeTimeout = 250 * time.Millisecond
	// DefaultDownAfter is how many consecutive failures mark a peer Down.
	DefaultDownAfter = 3
	// DefaultReplication is the rendezvous owner-set size (primary +
	// one replica).
	DefaultReplication = 2
	// DefaultRetryBackoff is the base backoff before asking a
	// lower-ranked owner (doubled per owner, plus deterministic jitter).
	DefaultRetryBackoff = 5 * time.Millisecond
	// DefaultNegativeTTL is how long a failed or empty pull suppresses
	// re-dialing for the same key.
	DefaultNegativeTTL = time.Second
	// DefaultWarmQueue bounds the push-warming queue.
	DefaultWarmQueue = 256
)

// negativeCap bounds the negative-result map; reaching it triggers an
// expired-entry sweep so the map tracks the live working set, not every
// key ever missed.
const negativeCap = 4096

// Config describes this replica's place in the fleet and its
// fault-tolerance tuning. The zero value of every knob means its
// Default* constant; knobs documented as "negative disables" accept -1,
// and New rejects a negative Replication, DownAfter or WarmQueue.
type Config struct {
	// Self is this replica's own advertised base URL. It participates in
	// ownership (so the fleet's key space is spread over every replica)
	// but is never dialed: keys this replica owns are computed locally
	// and replicated to the co-owner by warming.
	Self string
	// Peers lists the other replicas' base URLs (e.g.
	// "http://10.0.0.2:8080"). Order is irrelevant — ownership comes from
	// rendezvous hashing, so every replica may list the fleet in any
	// order and still agree.
	Peers []string
	// Timeout bounds one peer exchange.
	Timeout time.Duration

	// Fingerprint is this replica's engine fingerprint, model and stages
	// (graph2par.Engine.Fingerprint), sent with every warm push and
	// verified by the receiver. Empty disables push warming (pulls still
	// work: GETs carry no payload to authenticate).
	Fingerprint string
	// Replication is the rendezvous owner-set size per key. 1 restores
	// single-owner behaviour (no replication); values beyond the live
	// fleet size mean full replication.
	Replication int

	// ProbeInterval is the background health-probe period; negative
	// disables the background loop, and then only explicit ProbeOnce
	// calls readmit a Down peer (tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe.
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive probe/exchange failures mark a
	// peer Down (excluded from ownership until it re-passes two probes).
	DownAfter int

	// RetryBackoff is the base delay before each owner after the first,
	// doubled per owner with deterministic per-key jitter.
	RetryBackoff time.Duration

	// NegativeTTL suppresses re-dialing for a key after a failed or
	// empty pull; negative disables the negative cache.
	NegativeTTL time.Duration

	// WarmQueue bounds the asynchronous push-warming queue (overflow is
	// dropped and counted).
	WarmQueue int

	// Transport overrides the tuned default http.Transport for every
	// exchange and probe — the fault-injection hook
	// (internal/faultinject.Injector.Transport) plugs in here in tests
	// and the chaos harness.
	Transport http.RoundTripper
}

// Client resolves cache keys to owning replicas, fetches their cached
// reports, and replicates locally computed reports back to them. Its
// Fill method is a graph2par.CacheFiller and its Warm method a
// graph2par.CacheWarmer. Close releases the background probe/warm
// goroutines.
type Client struct {
	self        string
	peers       []*peer
	replication int
	downAfter   int
	backoff     time.Duration
	negTTL      time.Duration
	fingerprint string

	http  *http.Client // exchanges (pull + push), tuned transport
	probe *http.Client // health probes, shorter timeout

	mu       sync.Mutex
	inflight map[string]*call
	negative map[string]time.Time // key → negative-result expiry

	stop   chan struct{}
	warmCh chan warmItem
	wg     sync.WaitGroup

	hits         atomic.Uint64
	misses       atomic.Uint64
	errors       atomic.Uint64
	negativeHits atomic.Uint64
	retriesUsed  atomic.Uint64
	warmsSent    atomic.Uint64
	warmErrors   atomic.Uint64
	warmDropped  atomic.Uint64
}

// call is one in-flight peer exchange; latecomers for the same key wait
// on wg and share the result.
type call struct {
	wg     sync.WaitGroup
	report graph2par.LoopReport
	ok     bool
}

// New builds a peer-fill client and starts its background probe and
// warming goroutines (call Close to release them). Base URLs are
// normalized (scheme defaulted to http, host lowercased, trailing
// slashes trimmed) so equivalent spellings of the same replica hash
// identically fleet-wide.
func New(cfg Config) (*Client, error) {
	if cfg.Replication < 0 || cfg.DownAfter < 0 || cfg.WarmQueue < 0 {
		return nil, fmt.Errorf("peercache: negative count (Replication %d, DownAfter %d, WarmQueue %d)",
			cfg.Replication, cfg.DownAfter, cfg.WarmQueue)
	}
	self, err := normalizeBase(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("peercache: self: %w", err)
	}
	c := &Client{
		self:        self,
		replication: defaulted(cfg.Replication, DefaultReplication),
		downAfter:   defaulted(cfg.DownAfter, DefaultDownAfter),
		backoff:     defaultedDur(cfg.RetryBackoff, DefaultRetryBackoff),
		negTTL:      defaultedDur(cfg.NegativeTTL, DefaultNegativeTTL),
		fingerprint: cfg.Fingerprint,
		inflight:    make(map[string]*call),
		negative:    make(map[string]time.Time),
		stop:        make(chan struct{}),
	}
	transport := cfg.Transport
	if transport == nil {
		// A tuned transport instead of http.DefaultTransport: peer
		// exchanges are many small requests to a handful of hosts, so
		// connection reuse is the whole latency game — generous idle pools
		// per host, a bounded total, and a dial timeout well under the
		// exchange timeout so a dead peer fails the exchange, not the
		// pipeline stage.
		transport = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			MaxConnsPerHost:     32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c.http = &http.Client{Timeout: defaultedDur(cfg.Timeout, DefaultTimeout), Transport: transport}
	c.probe = &http.Client{Timeout: defaultedDur(cfg.ProbeTimeout, DefaultProbeTimeout), Transport: transport}

	seen := map[string]bool{self: true}
	for _, raw := range cfg.Peers {
		base, err := normalizeBase(raw)
		if err != nil {
			return nil, fmt.Errorf("peercache: peer %q: %w", raw, err)
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		c.peers = append(c.peers, &peer{base: base})
	}

	if c.fingerprint != "" {
		c.warmCh = make(chan warmItem, defaulted(cfg.WarmQueue, DefaultWarmQueue))
		c.wg.Add(1)
		go c.warmLoop()
	}
	if interval := defaultedDur(cfg.ProbeInterval, DefaultProbeInterval); interval > 0 {
		c.wg.Add(1)
		go c.probeLoop(interval)
	}
	return c, nil
}

// Close stops the background probe and warming goroutines. Queued warm
// pushes are discarded. The client must not be used after Close.
func (c *Client) Close() {
	close(c.stop)
	c.wg.Wait()
}

// defaulted maps the zero value of a knob to its default.
func defaulted(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defaultedDur(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return v
}

// normalizeBase canonicalizes one replica base URL: scheme defaulted to
// http (https preserved), host lowercased (DNS is case-insensitive, and
// two spellings of one replica must hash identically), trailing path
// slashes trimmed.
func normalizeBase(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("empty base URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("no host in %q", raw)
	}
	return u.Scheme + "://" + strings.ToLower(u.Host) + strings.TrimRight(u.Path, "/"), nil
}

// Peers returns the normalized peer list (self excluded).
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.base
	}
	return out
}

// candidate is one ranked replica for a key.
type candidate struct {
	base  string
	p     *peer // nil for self
	score uint64
}

// ranked returns the key's top-n replicas by rendezvous score over self
// plus the live peers, best first. Ties break toward the
// lexicographically larger base URL, so the ranking is a pure function
// of (key, live set) — every replica computes the same order no matter
// how its peer list is spelled or permuted.
func (c *Client) ranked(key string, n int) []candidate {
	cands := make([]candidate, 0, 1+len(c.peers))
	cands = append(cands, candidate{base: c.self, score: rendezvousScore(c.self, key)})
	for _, p := range c.peers {
		if p.live() {
			cands = append(cands, candidate{base: p.base, p: p, score: rendezvousScore(p.base, key)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].base > cands[j].base
	})
	if n < len(cands) {
		cands = cands[:n]
	}
	return cands
}

// Owner returns the replica owning key under rendezvous (highest random
// weight) hashing over self + the live peers, and whether that owner is
// a peer (false: this replica owns the key itself).
func (c *Client) Owner(key string) (string, bool) {
	top := c.ranked(key, 1)[0]
	return top.base, top.p != nil
}

// peerOwners returns the key's live owners other than self, best
// first: the replicas a fill asks and a warm push replicates to.
func (c *Client) peerOwners(key string) []*peer {
	var owners []*peer
	for _, cand := range c.ranked(key, c.replication) {
		if cand.p != nil {
			owners = append(owners, cand.p)
		}
	}
	return owners
}

// Owners returns the key's full ranked owner set (primary first), over
// self + the live peers.
func (c *Client) Owners(key string) []string {
	ranked := c.ranked(key, c.replication)
	out := make([]string, len(ranked))
	for i, cand := range ranked {
		out[i] = cand.base
	}
	return out
}

// rendezvousScore is the HRW weight of (replica, key): the first eight
// bytes of sha256(replica NUL key). A weak sequential hash (FNV) is not
// enough here — for keys sharing a long prefix, the score difference
// between two replicas stays nearly constant across keys, so one replica
// wins every key; sha256's avalanche makes the per-key winner uniform.
func rendezvousScore(replica, key string) uint64 {
	sum := sha256.Sum256([]byte(replica + "\x00" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Fill implements graph2par.CacheFiller: on this replica's local cache
// miss, fetch the report from the key's owners. ok=false (self is the
// only live owner, the owners are missing it, negative-cached, any
// transport or decode failure) tells the engine to recompute locally.
func (c *Client) Fill(key string) (graph2par.LoopReport, bool) {
	owners := c.peerOwners(key)
	if len(owners) == 0 {
		return graph2par.LoopReport{}, false
	}
	if c.negTTL > 0 && c.negativeHit(key) {
		c.negativeHits.Add(1)
		return graph2par.LoopReport{}, false
	}

	// Single-flight: the first caller for a key does the exchange, the
	// rest wait for its result. (The map never holds channel operations
	// under mu — only map writes and WaitGroup bookkeeping.)
	c.mu.Lock()
	if existing, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		existing.wg.Wait()
		return existing.report, existing.ok
	}
	cl := &call{}
	cl.wg.Add(1)
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.report, cl.ok = c.fetchRanked(key, owners)
	if !cl.ok && c.negTTL > 0 {
		// Negative result: remember it briefly so the next miss of this
		// key (and every single-flight generation after this one) does not
		// re-dial a dead or empty owner until the TTL lapses.
		c.setNegative(key)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	cl.wg.Done()
	return cl.report, cl.ok
}

// negativeHit reports whether key failed a pull within the TTL.
func (c *Client) negativeHit(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	expiry, ok := c.negative[key]
	if !ok {
		return false
	}
	if time.Now().After(expiry) {
		delete(c.negative, key)
		return false
	}
	return true
}

// setNegative records a failed pull for key, sweeping expired entries
// when the map hits its cap.
func (c *Client) setNegative(key string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.negative) >= negativeCap {
		for k, exp := range c.negative {
			if now.After(exp) {
				delete(c.negative, k)
			}
		}
	}
	c.negative[key] = now.Add(c.negTTL)
}

// fetchRanked asks each of the key's live owners once, in rank order,
// until one answers with the report: after a miss the co-owner may hold
// what the primary lost (e.g. across a restart). Every owner after the
// first is preceded by an exponential backoff with deterministic
// per-key jitter, so a fleet-wide stampede onto the second-ranked owner
// after a primary death is spread instead of synchronized.
func (c *Client) fetchRanked(key string, owners []*peer) (graph2par.LoopReport, bool) {
	for i, p := range owners {
		if i > 0 {
			c.retriesUsed.Add(1)
			time.Sleep(retryDelay(c.backoff, key, i))
		}
		if report, ok := c.fetchOne(p, key); ok {
			return report, true
		}
	}
	return graph2par.LoopReport{}, false
}

// retryDelay computes the backoff before a fill asks its owner #n
// (0-based; owner #0 is asked at once): base·2ⁿ⁻¹ plus a deterministic
// jitter drawn from (key, n) — deterministic so tests and chaos runs
// replay identically, jittered so the replicas of a fleet that all lost
// the same primary do not re-dial the co-owner in lockstep.
func retryDelay(base time.Duration, key string, n int) time.Duration {
	shift := n - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	h := fnv.New64a()
	io.WriteString(h, key)
	binary.Write(h, binary.BigEndian, int64(n))
	jitter := time.Duration(h.Sum64() % uint64(base))
	return d + jitter
}

// fetchOne performs one GET /v1/cache/<key> against one owner, feeding
// the outcome into the peer's health state. ok is true only for a 200
// that decodes; a 404 (the owner answered but has no entry) and a
// failure (transport, 5xx or decode) both send the caller on to the
// next owner.
func (c *Client) fetchOne(p *peer, key string) (graph2par.LoopReport, bool) {
	fail := func() (graph2par.LoopReport, bool) {
		c.errors.Add(1)
		p.errors.Add(1)
		p.noteFailure(c.downAfter)
		return graph2par.LoopReport{}, false
	}
	resp, err := c.http.Get(p.base + "/v1/cache/" + key)
	if err != nil {
		return fail()
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		c.misses.Add(1)
		p.misses.Add(1)
		p.noteSuccess(false)
		return graph2par.LoopReport{}, false
	default:
		io.Copy(io.Discard, resp.Body)
		return fail()
	}
	var report graph2par.LoopReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		// Drain before close even on a failed decode: an undrained body
		// kills the keep-alive connection, so one malformed answer would
		// also tax the NEXT exchange with a fresh TCP handshake.
		io.Copy(io.Discard, resp.Body)
		return fail()
	}
	// Drain any trailing bytes past the JSON value for the same reason.
	io.Copy(io.Discard, resp.Body)
	c.hits.Add(1)
	p.hits.Add(1)
	p.noteSuccess(false)
	return report, true
}

// Stats snapshots every counter plus the per-peer health state,
// in the shape /v1/stats reports (serve.ServeConfig.PeerStats).
func (c *Client) Stats() serve.PeerStats {
	st := serve.PeerStats{
		Peers:        len(c.peers),
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Errors:       c.errors.Load(),
		NegativeHits: c.negativeHits.Load(),
		Retries:      c.retriesUsed.Load(),
		WarmsSent:    c.warmsSent.Load(),
		WarmErrors:   c.warmErrors.Load(),
		WarmDropped:  c.warmDropped.Load(),
	}
	for _, p := range c.peers {
		state, fails := p.snapshot()
		if state == Healthy || state == Suspect {
			st.Live++
		}
		st.Replicas = append(st.Replicas, serve.PeerReplica{
			Base:     p.base,
			State:    state.String(),
			Failures: fails,
			Hits:     p.hits.Load(),
			Misses:   p.misses.Load(),
			Errors:   p.errors.Load(),
			Warms:    p.warms.Load(),
		})
	}
	return st
}
