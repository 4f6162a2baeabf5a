package peercache

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graph2par"
	"graph2par/internal/faultinject"
	"graph2par/internal/serve"
)

// newTestClient builds a client with background probing disabled (tests
// drive ProbeOnce explicitly so state transitions are deterministic) and
// registers its Close.
func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNormalizeBase(t *testing.T) {
	cases := map[string]string{
		"http://10.0.0.2:8080/":          "http://10.0.0.2:8080",
		"10.0.0.2:8080":                  "http://10.0.0.2:8080",
		"https://replica-b":              "https://replica-b",
		"HTTP://Replica-B:8080":          "http://replica-b:8080",
		"http://REPLICA-b.example:8080/": "http://replica-b.example:8080",
		"http://[::1]:8080":              "http://[::1]:8080",
		"[2001:DB8::1]:9090":             "http://[2001:db8::1]:9090",
		"http://replica-a/api/":          "http://replica-a/api",
		"replica-a:8080/cache///":        "http://replica-a:8080/cache",
		"HTTPS://Replica-C:443/":         "https://replica-c:443",
	}
	for in, want := range cases {
		got, err := normalizeBase(in)
		if err != nil {
			t.Errorf("normalizeBase(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("normalizeBase(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "   ", "http://"} {
		if _, err := normalizeBase(bad); err == nil {
			t.Errorf("normalizeBase(%q) should fail", bad)
		}
	}
	// Two spellings of one replica must hash to the same rendezvous
	// scores, or a fleet with inconsistent configs would split ownership.
	a, _ := normalizeBase("HTTP://Replica-B:8080/")
	b, _ := normalizeBase("replica-b:8080")
	if a != b {
		t.Errorf("equivalent spellings normalize differently: %q vs %q", a, b)
	}
}

// TestNewRejectsNegativeCounts pins New's validation of the count knobs:
// a negative Replication would panic every fill (Client.ranked slices
// cands[:n]), and a negative WarmQueue panics in make(chan).
func TestNewRejectsNegativeCounts(t *testing.T) {
	for name, cfg := range map[string]Config{
		"Replication": {Replication: -1},
		"DownAfter":   {DownAfter: -1},
		"WarmQueue":   {WarmQueue: -1, Fingerprint: "fp"},
	} {
		cfg.Self, cfg.Peers, cfg.ProbeInterval = "http://a:1", []string{"http://b:1"}, -1
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s -1: New panicked: %v", name, r)
				}
			}()
			c, err := New(cfg)
			if err == nil {
				c.Close()
				t.Errorf("%s -1: New accepted it", name)
			}
		}()
	}
}

// TestOwnerAgreement is the rendezvous property the fleet depends on:
// replicas configured with the same fleet in different orders (and
// different selves) compute the same owner for every key — including
// tie-breaks — and the keys spread over more than one replica.
func TestOwnerAgreement(t *testing.T) {
	fleet := []string{"http://a:1", "http://b:1", "http://c:1"}
	clients := make([]*Client, len(fleet))
	for i, self := range fleet {
		var peers []string
		// Deliberately permuted peer order per client.
		for j := range fleet {
			if p := fleet[(i+j+1)%len(fleet)]; p != self {
				peers = append(peers, p)
			}
		}
		clients[i] = newTestClient(t, Config{Self: self, Peers: peers})
	}
	owners := map[string]bool{}
	for k := 0; k < 64; k++ {
		key := fmt.Sprintf("%064x", k)
		owner, _ := clients[0].Owner(key)
		owners[owner] = true
		wantSet := clients[0].Owners(key)
		for _, c := range clients[1:] {
			if got, _ := c.Owner(key); got != owner {
				t.Fatalf("key %s: owner %q vs %q — replicas disagree", key, owner, got)
			}
			if gotSet := c.Owners(key); !reflect.DeepEqual(gotSet, wantSet) {
				t.Fatalf("key %s: owner set %v vs %v — replicas disagree", key, gotSet, wantSet)
			}
		}
		if len(wantSet) != 2 || wantSet[0] == wantSet[1] {
			t.Fatalf("key %s: owner set %v, want 2 distinct ranked owners", key, wantSet)
		}
	}
	if len(owners) < 2 {
		t.Errorf("64 keys all landed on one replica; rendezvous is not spreading")
	}
}

// TestSingleFlight checks concurrent identical misses collapse to one
// peer exchange: 16 goroutines fill the same key, the owner sees one GET.
func TestSingleFlight(t *testing.T) {
	var gets, waiting sync.WaitGroup
	waiting.Add(16)
	var requests atomic.Int32
	canned, _ := json.Marshal(graph2par.LoopReport{Line: 7, Source: "for"})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		waiting.Wait() // park until every caller is committed to this key
		// Each caller signals just before it calls Fill; give the last
		// ones time to reach the single-flight map, or a caller that
		// arrives after this exchange returns starts a second one.
		time.Sleep(50 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned)
	}))
	defer owner.Close()

	c := newTestClient(t, Config{Self: "http://self.invalid:1", Peers: []string{owner.URL}, Timeout: 5 * time.Second})
	key := peerOwnedKey(t, c)

	results := make([]bool, 16)
	for i := 0; i < 16; i++ {
		gets.Add(1)
		go func(i int) {
			defer gets.Done()
			waiting.Done()
			r, ok := c.Fill(key)
			results[i] = ok && r.Line == 7
		}(i)
	}
	gets.Wait()
	for i, ok := range results {
		if !ok {
			t.Errorf("caller %d did not get the shared result", i)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("owner saw %d GETs for one key, want 1 (single-flight)", n)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1 — waiters must share, not re-count", st.Hits)
	}
}

// TestFillDegradesGracefully: owner 404s and owner-down both return
// ok=false (local recompute), never an error the pipeline could trip on.
func TestFillDegradesGracefully(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"not_found"}}`, http.StatusNotFound)
	}))
	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{owner.URL},
		NegativeTTL: -1, // each Fill must really dial for the counters below
	})
	key := peerOwnedKey(t, c)
	if _, ok := c.Fill(key); ok {
		t.Error("404 from owner reported as a hit")
	}
	owner.Close()
	if _, ok := c.Fill(key); ok {
		t.Error("dead owner reported as a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Errors != 1 {
		t.Errorf("misses=%d errors=%d, want 1 and 1", st.Misses, st.Errors)
	}
}

func peerOwnedKey(t *testing.T, c *Client) string {
	t.Helper()
	for k := 0; k < 256; k++ {
		cand := fmt.Sprintf("%064x", k)
		if _, isPeer := c.Owner(cand); isPeer {
			return cand
		}
	}
	t.Fatal("no peer-owned key in 256 candidates")
	return ""
}

// TestFetchDrainsBodyOnDecodeFailure is the keep-alive regression test:
// a 200 whose body fails to decode must still be drained before close,
// or the transport discards the connection and the NEXT exchange pays a
// fresh TCP handshake. The tell is the server-side connection count.
func TestFetchDrainsBodyOnDecodeFailure(t *testing.T) {
	garbage := strings.Repeat("not json ", 16*1024) // > the transport's read-ahead
	canned, _ := json.Marshal(graph2par.LoopReport{Line: 3})
	var reqs atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if reqs.Add(1) == 1 {
			fmt.Fprint(w, garbage)
			return
		}
		w.Write(canned)
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{srv.URL},
		NegativeTTL: -1,
	})
	key := peerOwnedKey(t, c)
	if _, ok := c.Fill(key); ok {
		t.Fatal("garbage body decoded as a hit")
	}
	if r, ok := c.Fill(key); !ok || r.Line != 3 {
		t.Fatalf("second fill: ok=%v line=%d, want a hit with line 3", ok, r.Line)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections for 2 exchanges, want 1 (keep-alive reuse after drained decode failure)", n)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Hits != 1 {
		t.Errorf("errors=%d hits=%d, want 1 and 1", st.Errors, st.Hits)
	}
}

// TestNegativeTTL: a failed pull suppresses re-dialing the same key
// until the TTL lapses, so repeated misses of one hot key cannot hammer
// an owner that just missed or failed it.
func TestNegativeTTL(t *testing.T) {
	var reqs atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		http.Error(w, "{}", http.StatusNotFound)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{srv.URL},
		NegativeTTL: 60 * time.Millisecond,
	})
	key := peerOwnedKey(t, c)
	c.Fill(key) // dials, 404s, caches the negative result
	c.Fill(key) // suppressed
	c.Fill(key) // suppressed
	if n := reqs.Load(); n != 1 {
		t.Errorf("owner saw %d requests inside the TTL, want 1", n)
	}
	st := c.Stats()
	if st.NegativeHits != 2 {
		t.Errorf("negativeHits = %d, want 2", st.NegativeHits)
	}
	time.Sleep(80 * time.Millisecond)
	c.Fill(key) // TTL lapsed: dials again
	if n := reqs.Load(); n != 2 {
		t.Errorf("owner saw %d requests after the TTL, want 2", n)
	}
}

// TestHealthStateMachine walks the full lattice — Healthy → Suspect →
// Down (key space redistributes) → Probing → Healthy (key space
// restored) — driven by explicit probes against a togglable healthz.
func TestHealthStateMachine(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			t.Errorf("probe hit %s, want /v1/healthz", r.URL.Path)
		}
		if healthy.Load() {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		http.Error(w, "sick", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	state := func() string { return c.Stats().Replicas[0].State }

	c.ProbeOnce()
	if got := state(); got != "healthy" {
		t.Fatalf("after passing probe: state %q, want healthy", got)
	}
	key := peerOwnedKey(t, c) // peer-owned while the peer is live

	healthy.Store(false)
	c.ProbeOnce()
	if got := state(); got != "suspect" {
		t.Fatalf("after 1 failed probe: state %q, want suspect (one blip must not reshuffle ownership)", got)
	}
	if _, isPeer := c.Owner(key); !isPeer {
		t.Fatal("suspect peer lost ownership; only down peers are excluded")
	}
	c.ProbeOnce()
	c.ProbeOnce() // third consecutive failure: down
	if got := state(); got != "down" {
		t.Fatalf("after 3 failed probes: state %q, want down", got)
	}
	if st := c.Stats(); st.Live != 0 {
		t.Fatalf("live = %d with the only peer down, want 0", st.Live)
	}
	if _, isPeer := c.Owner(key); isPeer {
		t.Fatal("down peer still owns keys; its key space must redistribute")
	}

	healthy.Store(true)
	c.ProbeOnce()
	if got := state(); got != "probing" {
		t.Fatalf("after 1 recovery probe: state %q, want probing (not yet trusted with traffic)", got)
	}
	if _, isPeer := c.Owner(key); isPeer {
		t.Fatal("probing peer already owns keys; it needs a second consecutive pass")
	}
	c.ProbeOnce()
	if got := state(); got != "healthy" {
		t.Fatalf("after 2 recovery probes: state %q, want healthy", got)
	}
	if _, isPeer := c.Owner(key); !isPeer {
		t.Fatal("recovered peer did not get its key space back")
	}
}

// TestExchangeFailuresTakePeerDown drives the health machine from real
// exchanges alone: a peer whose healthz passes but whose cache route
// fails goes down after DefaultDownAfter failed fills, the next fill
// skips it without dialing, and two passing probes readmit it.
func TestExchangeFailuresTakePeerDown(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	var reqs atomic.Int32
	canned, _ := json.Marshal(graph2par.LoopReport{Line: 9})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		switch {
		case r.URL.Path == "/v1/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
		case broken.Load():
			http.Error(w, "wedged", http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(canned)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{srv.URL},
		NegativeTTL: -1, // each Fill must really dial
	})
	state := func() string { return c.Stats().Replicas[0].State }
	key := peerOwnedKey(t, c)

	for i := 0; i < DefaultDownAfter; i++ {
		if _, ok := c.Fill(key); ok {
			t.Fatalf("fill %d succeeded against a 500", i+1)
		}
	}
	if got := state(); got != "down" {
		t.Fatalf("after %d failed fills: state %q, want down", DefaultDownAfter, got)
	}
	before := reqs.Load()
	if _, ok := c.Fill(key); ok {
		t.Fatal("fill succeeded with its only peer down")
	}
	if n := reqs.Load() - before; n != 0 {
		t.Fatalf("fill dialed a down peer %d times, want 0", n)
	}

	broken.Store(false)
	c.ProbeOnce()
	if got := state(); got != "probing" {
		t.Fatalf("after 1 passing probe: state %q, want probing", got)
	}
	c.ProbeOnce()
	if got := state(); got != "healthy" {
		t.Fatalf("after 2 passing probes: state %q, want healthy", got)
	}
	if r, ok := c.Fill(key); !ok || r.Line != 9 {
		t.Fatalf("fill after readmission: ok=%v line=%d, want a hit with line 9", ok, r.Line)
	}
}

// TestRetryFallsToSecondOwner: when the primary owner is unreachable,
// the fill moves on to the next-ranked owner (the replica) and
// succeeds.
func TestRetryFallsToSecondOwner(t *testing.T) {
	canned, _ := json.Marshal(graph2par.LoopReport{Line: 11})
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned)
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	bad.Close() // dead from the start: connection refused

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{good.URL, bad.URL},
		RetryBackoff: time.Millisecond, NegativeTTL: -1, DownAfter: 100,
	})
	goodBase, _ := normalizeBase(good.URL)
	badBase, _ := normalizeBase(bad.URL)

	// Find a key ranked [bad, good]: primary dead, replica alive.
	key := ""
	for k := 0; k < 512; k++ {
		cand := fmt.Sprintf("%064x", k)
		owners := c.Owners(cand)
		if len(owners) == 2 && owners[0] == badBase && owners[1] == goodBase {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key ranked [bad, good] in 512 candidates")
	}

	r, ok := c.Fill(key)
	if !ok || r.Line != 11 {
		t.Fatalf("fill: ok=%v line=%d, want the replica's answer", ok, r.Line)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Errors != 1 || st.Hits != 1 {
		t.Errorf("retries=%d errors=%d hits=%d, want 1/1/1", st.Retries, st.Errors, st.Hits)
	}
}

// TestFillAsksEachLiveOwnerOnce: with an owner set past two, a fill
// that keeps missing asks every live owner, each exactly once.
func TestFillAsksEachLiveOwnerOnce(t *testing.T) {
	var gets [3]atomic.Int32
	var urls []string
	for i := range gets {
		n := &gets[i]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			http.Error(w, "{}", http.StatusNotFound)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: urls,
		Replication: 4, RetryBackoff: time.Millisecond, NegativeTTL: -1,
	})
	if _, ok := c.Fill(strings.Repeat("cd", 32)); ok {
		t.Fatal("fill hit with every owner answering 404")
	}
	for i := range gets {
		if n := gets[i].Load(); n != 1 {
			t.Errorf("owner %d saw %d GETs, want 1", i, n)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Retries != 2 {
		t.Errorf("misses=%d retries=%d, want 3 and 2", st.Misses, st.Retries)
	}
}

// TestWarmPush: a locally computed report is replicated to the key's
// co-owner with an authenticated POST, and Flush makes the asynchronous
// push observable.
func TestWarmPush(t *testing.T) {
	type push struct {
		path, fp, ct string
		body         graph2par.LoopReport
	}
	var mu sync.Mutex
	var pushes []push
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			t.Errorf("warm arrived as %s, want POST", r.Method)
		}
		var p push
		p.path, p.fp, p.ct = r.URL.Path, r.Header.Get(serve.FingerprintHeader), r.Header.Get("Content-Type")
		json.NewDecoder(r.Body).Decode(&p.body)
		mu.Lock()
		pushes = append(pushes, p)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{srv.URL},
		Fingerprint: "fp-test",
	})
	key := strings.Repeat("ab", 32)
	c.Warm(key, graph2par.LoopReport{Line: 5, Source: "for"})
	c.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(pushes) != 1 {
		t.Fatalf("peer saw %d warm pushes, want 1", len(pushes))
	}
	p := pushes[0]
	if p.path != "/v1/cache/"+key {
		t.Errorf("push path %q, want /v1/cache/%s", p.path, key)
	}
	if p.fp != "fp-test" {
		t.Errorf("push fingerprint %q, want fp-test", p.fp)
	}
	if p.ct != "application/json" {
		t.Errorf("push content type %q, want application/json", p.ct)
	}
	if p.body.Line != 5 {
		t.Errorf("push body line %d, want 5", p.body.Line)
	}
	st := c.Stats()
	if st.WarmsSent != 1 || st.Replicas[0].Warms != 1 {
		t.Errorf("warmsSent=%d replicas[0].warms=%d, want 1/1", st.WarmsSent, st.Replicas[0].Warms)
	}

	// No fingerprint → warming disabled entirely: Warm and Flush no-op.
	off := newTestClient(t, Config{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	off.Warm(key, graph2par.LoopReport{Line: 6})
	off.Flush()
	if len(pushes) != 1 {
		t.Error("fingerprint-less client pushed a warm")
	}
}

// TestFaultInjectedExchanges wires the fault-injection harness into the
// client the way the chaos tests do — via Config.Transport — and checks
// injected 5xx storms and partitions degrade to ok=false, then heal.
func TestFaultInjectedExchanges(t *testing.T) {
	canned, _ := json.Marshal(graph2par.LoopReport{Line: 13})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned)
	}))
	defer srv.Close()

	inj := faultinject.New(42, faultinject.Rule{Kind: faultinject.Err5xx, Rate: 1, Status: 503})
	c := newTestClient(t, Config{
		Self: "http://self.invalid:1", Peers: []string{srv.URL},
		Transport: inj.Transport(nil), NegativeTTL: -1, DownAfter: 100,
	})
	key := peerOwnedKey(t, c)

	if _, ok := c.Fill(key); ok {
		t.Fatal("fill succeeded through a 100% 5xx storm")
	}
	inj.SetRules() // storm ends
	if r, ok := c.Fill(key); !ok || r.Line != 13 {
		t.Fatalf("post-storm fill: ok=%v line=%d, want hit", ok, r.Line)
	}

	host := srv.Listener.Addr().String()
	inj.Partition(host)
	if _, ok := c.Fill(key); ok {
		t.Fatal("fill crossed a partition")
	}
	inj.Heal(host)
	if _, ok := c.Fill(key); !ok {
		t.Fatal("fill failed after the partition healed")
	}
	if n := inj.Counts().Partitioned; n == 0 {
		t.Error("partition rejections were not counted")
	}
}

// --- fleet tests against real engines (short-skipped: they train) ---

// fleetModel trains the fleet tests' small cached engine and saves it to
// the checkpoint the other replicas load.
func fleetModel(t *testing.T) (*graph2par.Engine, string) {
	t.Helper()
	e, err := graph2par.NewEngine(graph2par.EngineConfig{
		TrainScale: 0.008, Epochs: 2, Seed: 11, Quiet: true, CacheSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := e.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	return e, ckpt
}

// TestTwoReplicaPeerFill is the tier's base acceptance test: replica A
// and replica B share a checkpoint (so their fingerprints — and
// therefore their cache keys — agree), B has analyzed a corpus, and A's
// misses on that corpus are served out of B's cache byte-identically to
// what a local recompute would have produced.
func TestTwoReplicaPeerFill(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	// Replica B trains the fleet's model and serves it.
	engineB, ckpt := fleetModel(t)
	serverB := httptest.NewServer(serve.New(engineB).Handler())
	defer serverB.Close()

	// Replica A loads the shared checkpoint: same fingerprint, same keys.
	engineA, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath: ckpt, Quiet: true, CacheSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if engineA.Fingerprint() != engineB.Fingerprint() {
		t.Fatalf("checkpoint round-trip changed the fingerprint:\n  A %s\n  B %s",
			engineA.Fingerprint(), engineB.Fingerprint())
	}
	clientA := newTestClient(t, Config{Self: "http://replica-a.invalid:1", Peers: []string{serverB.URL}})
	engineA.SetCacheFiller(clientA.Fill)

	corpus := chaosCorpus(3)

	// B computes the corpus (warming its cache); an engine with no filler
	// provides the reference answers A's peer-filled reports must match.
	reference := make([][]graph2par.LoopReport, len(corpus))
	for i, src := range corpus {
		if reference[i], err = engineB.AnalyzeSourceContext(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}

	for i, src := range corpus {
		got, err := engineA.AnalyzeSourceContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-identical, not just semantically equal: marshal both sides.
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(reference[i])
		if !reflect.DeepEqual(got, reference[i]) || string(gotJSON) != string(wantJSON) {
			t.Errorf("file %d: peer-filled reports differ from local recompute\n got: %s\nwant: %s",
				i, gotJSON, wantJSON)
		}
	}

	st := clientA.Stats()
	if st.Hits == 0 {
		t.Error("peer tier never engaged: 0 hits across 12 peer-eligible keys")
	}
	if st.Errors != 0 {
		t.Errorf("peer exchanges errored %d times", st.Errors)
	}
	t.Logf("peer stats: hits=%d misses=%d", st.Hits, st.Misses)

	// Repeat analyses are now local cache hits on A: the peer results were
	// installed into A's cache, so the tier is not re-consulted.
	before := st.Hits + st.Misses
	if _, err := engineA.AnalyzeSourceContext(context.Background(), corpus[0]); err != nil {
		t.Fatal(err)
	}
	st = clientA.Stats()
	if st.Hits+st.Misses != before {
		t.Error("repeat analysis consulted the peer tier despite a warm local cache")
	}
}

// TestMixedStagePeerFill is TestTwoReplicaPeerFill on a fleet whose
// replicas disagree on a stage: replica A verifies, replica B does not,
// and both load one checkpoint. B's reports carry no verdict, so none of
// them may answer A's misses: A's reports must equal a fresh verify-on
// engine's, byte for byte.
func TestMixedStagePeerFill(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	engineB, ckpt := fleetModel(t)
	serverB := httptest.NewServer(serve.New(engineB).Handler())
	defer serverB.Close()

	engineA, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath: ckpt, Quiet: true, CacheSize: 512, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := graph2par.NewEngine(graph2par.EngineConfig{ModelPath: ckpt, Quiet: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	clientA := newTestClient(t, Config{Self: "http://replica-a.invalid:1", Peers: []string{serverB.URL}})
	engineA.SetCacheFiller(clientA.Fill)

	ctx := context.Background()
	corpus := chaosCorpus(3)
	for _, src := range corpus { // B computes the corpus, warming its cache
		if _, err := engineB.AnalyzeSourceContext(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	verdicts := 0
	for i, src := range corpus {
		got, err := engineA.AnalyzeSourceContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.AnalyzeSourceContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range want {
			if r.Verdict != nil {
				verdicts++
			}
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("file %d: verify-on replica's reports differ from a fresh verify-on engine's\n got: %s\nwant: %s",
				i, gotJSON, wantJSON)
		}
	}
	if verdicts == 0 {
		t.Fatal("the fresh verify-on engine issued no verdict, so the comparison shows nothing")
	}
	if st := clientA.Stats(); st.Hits != 0 {
		t.Errorf("the verify-off replica answered %d of the verify-on replica's misses", st.Hits)
	}
}

// chaosCorpus builds n distinct multi-loop files: with small fleets each
// loop key is peer-owned with fair probability, so across ~4n keys the
// peer path engages deterministically (ownership is a pure hash).
func chaosCorpus(n int) []string {
	var corpus []string
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "int main() {\n    int a[%d], b[%d];\n    int i, s = 0;\n", 64+i, 64+i)
		fmt.Fprintf(&b, "    for (i = 0; i < %d; i++) b[i] = i;\n", 64+i)
		fmt.Fprintf(&b, "    for (i = 0; i < %d; i++) a[i] = b[i] * 2;\n", 64+i)
		fmt.Fprintf(&b, "    for (i = 1; i < %d; i++) a[i] = a[i-1] + 1;\n", 64+i)
		fmt.Fprintf(&b, "    for (i = 0; i < %d; i++) s += a[i];\n    return s;\n}\n", 64+i)
		corpus = append(corpus, b.String())
	}
	return corpus
}

// chaosReplica is one member of the acceptance-test fleet.
type chaosReplica struct {
	engine *graph2par.Engine
	server *httptest.Server
	client *Client
	base   string
}

// startChaosReplica boots one replica on a fixed listener address: a
// fresh engine from the shared checkpoint (cold cache — exactly what a
// process restart produces), a serve handler, and a peer client wired
// into the engine as both filler (pull) and warmer (push).
func startChaosReplica(t *testing.T, ckpt, addr string, peerURLs []string) *chaosReplica {
	t.Helper()
	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath: ckpt, Quiet: true, CacheSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(serve.New(engine).Handler())
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()

	client, err := New(Config{
		Self:          "http://" + ln.Addr().String(),
		Peers:         peerURLs,
		Fingerprint:   engine.Fingerprint(),
		ProbeInterval: -1, // the test steps ProbeOnce explicitly
		RetryBackoff:  time.Millisecond,
		NegativeTTL:   -1, // determinism: every fill really consults the fleet
		Timeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.SetCacheFiller(client.Fill)
	engine.SetCacheWarmer(client.Warm)
	return &chaosReplica{engine: engine, server: srv, client: client, base: "http://" + ln.Addr().String()}
}

// TestChaosFleetAcceptance is the fault-tolerance acceptance test: a
// three-replica fleet with one replica killed and later restarted
// mid-workload. Gates: every report stays byte-identical to a local
// recompute, the dead replica's key space redistributes to the
// survivors (no exchange errors once detection completes), and the
// restarted replica recovers its shard from its co-owners.
func TestChaosFleetAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and boots a fleet")
	}
	trainer, ckpt := fleetModel(t)

	// Reference answers: the trainer engine, never wired to the fleet.
	corpus := chaosCorpus(3)
	extra := chaosCorpus(5)[3:] // phase-2 workload, distinct from corpus
	reference := map[string][]byte{}
	for _, src := range append(append([]string{}, corpus...), extra...) {
		reports, err := trainer.AnalyzeSourceContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(reports)
		reference[src] = j
	}

	// Reserve three fixed addresses so a "restarted" replica comes back
	// where the fleet expects it.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	urls := make([]string, 3)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	replicas := make([]*chaosReplica, 3)
	for i := range replicas {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		replicas[i] = startChaosReplica(t, ckpt, addrs[i], peers)
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			if r.server != nil {
				r.server.Close()
			}
			r.client.Close()
		}
	})

	check := func(phase string, r *chaosReplica, srcs []string) {
		t.Helper()
		for i, src := range srcs {
			got, err := r.engine.AnalyzeSourceContext(context.Background(), src)
			if err != nil {
				t.Fatalf("%s: file %d: %v", phase, i, err)
			}
			if j, _ := json.Marshal(got); string(j) != string(reference[src]) {
				t.Errorf("%s: file %d: reports diverged from local recompute\n got: %s\nwant: %s",
					phase, i, j, reference[src])
			}
		}
	}

	// Phase 1: replica 0 computes the corpus and replicates it; replica 1
	// then rides the fleet's caches.
	check("phase1/compute", replicas[0], corpus)
	replicas[0].client.Flush() // warm pushes land before anyone pulls
	check("phase1/pull", replicas[1], corpus)
	if st := replicas[0].client.Stats(); st.WarmsSent == 0 {
		t.Error("phase1: replica 0 never replicated its computed shard")
	}

	// Phase 2: kill replica 2 and let the survivors detect it.
	replicas[2].server.Close()
	replicas[2].server = nil
	replicas[2].client.Close()
	for i := 0; i < DefaultDownAfter; i++ {
		replicas[0].client.ProbeOnce()
		replicas[1].client.ProbeOnce()
	}
	for _, i := range []int{0, 1} {
		if st := replicas[i].client.Stats(); st.Live != 1 {
			t.Fatalf("phase2: replica %d sees %d live peers, want 1", i, st.Live)
		}
		for k := 0; k < 64; k++ {
			key := fmt.Sprintf("%064x", k)
			for _, owner := range replicas[i].client.Owners(key) {
				if owner == urls[2] {
					t.Fatalf("phase2: replica %d still ranks the dead replica as an owner of %s", i, key)
				}
			}
		}
	}
	// The surviving fleet absorbs new work with zero exchange errors:
	// detection already moved the dead replica out of every owner set.
	e0 := replicas[0].client.Stats().Errors
	check("phase2/redistributed", replicas[0], extra)
	replicas[0].client.Flush()
	if st := replicas[0].client.Stats(); st.Errors != e0 {
		t.Errorf("phase2: %d exchange errors after detection, want 0 (dead peer must not be dialed)", st.Errors-e0)
	}
	check("phase2/pull", replicas[1], extra)

	// Phase 3: restart replica 2 on its old address with a cold cache.
	replicas[2] = startChaosReplica(t, ckpt, addrs[2], []string{urls[0], urls[1]})
	for i := 0; i < 2; i++ { // Down → Probing → Healthy
		replicas[0].client.ProbeOnce()
		replicas[1].client.ProbeOnce()
	}
	for _, i := range []int{0, 1} {
		if st := replicas[i].client.Stats(); st.Live != 2 {
			t.Fatalf("phase3: replica %d sees %d live peers after restart, want 2", i, st.Live)
		}
	}
	// The restarted replica reanalyzes the whole workload cold: every key
	// it does not own is pulled from its owners, and keys it owns come
	// back from the co-owner replica warming gave them to — the shard
	// survives the restart even though the process lost its memory.
	check("phase3/recover", replicas[2], append(append([]string{}, corpus...), extra...))
	st := replicas[2].client.Stats()
	if st.Hits == 0 {
		t.Error("phase3: restarted replica recomputed everything; peer recovery never engaged")
	}
	t.Logf("phase3 restarted-replica stats: hits=%d misses=%d errors=%d retries=%d",
		st.Hits, st.Misses, st.Errors, st.Retries)
}
