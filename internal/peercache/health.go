package peercache

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// State is a peer's position in the health state machine:
//
//	Healthy ──failure──▶ Suspect ──DownAfter consecutive failures──▶ Down
//	   ▲                    │                                          │
//	   └─────success────────┘                                   probe success
//	   ▲                                                               │
//	   └──────────────probe success────────────── Probing ◀───────────┘
//	                                                 │
//	                                          probe failure ──▶ Down
//
// Healthy and Suspect peers are *live*: they participate in rendezvous
// ownership and may be dialed. Down and Probing peers are excluded, so
// a dead replica's key space redistributes to the survivors within one
// detection (its misses stop paying timeouts) and a restarting replica
// is not handed traffic until it has answered two consecutive probes
// (Down → Probing → Healthy) — the hysteresis keeps a flapping process
// from oscillating the fleet's ownership map on every blip.
//
// Both probe outcomes and real exchange outcomes drive the machine:
// exchanges detect death faster than the probe timer under traffic,
// probes detect recovery (a Down peer gets no exchanges) and death
// during quiet periods. Only a probe moves a peer out of Down, so a
// client with probing disabled never readmits one. A peer whose
// /v1/healthz passes while its cache route fails keeps cycling
// Down → Probing → Healthy, paying DownAfter failed exchanges per cycle.
type State int32

const (
	Healthy State = iota
	Suspect
	Down
	Probing
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Probing:
		return "probing"
	}
	return "unknown"
}

// peer is one remote replica: its normalized base URL plus its health
// state and counters.
type peer struct {
	base string

	mu    sync.Mutex // guards state + fails transitions
	state State
	fails int // consecutive failures (probes and exchanges)

	hits   atomic.Uint64 // exchanges answered 200
	misses atomic.Uint64 // exchanges answered 404
	errors atomic.Uint64 // failed exchanges (transport, 5xx, decode)
	warms  atomic.Uint64 // warm pushes accepted
}

// live reports whether the peer participates in ownership and may be
// dialed.
func (p *peer) live() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == Healthy || p.state == Suspect
}

// snapshot reads the health state for stats.
func (p *peer) snapshot() (State, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.fails
}

// noteSuccess records evidence the peer is alive (a completed exchange
// or probe). fromProbe distinguishes the Down-recovery path: only
// probes walk Down → Probing → Healthy; exchanges never reach a Down
// peer, so for them the transition is always directly to Healthy.
func (p *peer) noteSuccess(fromProbe bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails = 0
	switch p.state {
	case Down:
		if fromProbe {
			p.state = Probing // first success: not yet trusted with traffic
		}
	default:
		p.state = Healthy
	}
}

// noteFailure records a failed exchange or probe: one failure makes a
// Healthy peer Suspect (still live — one blip must not reshuffle
// ownership), downAfter consecutive failures make it Down, and a
// Probing peer falls straight back to Down.
func (p *peer) noteFailure(downAfter int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	switch {
	case p.state == Probing:
		p.state = Down
	case p.fails >= downAfter:
		p.state = Down
	case p.state == Healthy:
		p.state = Suspect
	}
}

// ProbeOnce probes every peer's /v1/healthz once, concurrently, and
// returns when all outcomes are recorded. The background loop calls it
// per tick; tests call it directly for deterministic state-machine
// stepping (a Down peer needs two ProbeOnce successes to rejoin:
// Down → Probing → Healthy).
func (c *Client) ProbeOnce() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.probeOne(p)
		}(p)
	}
	wg.Wait()
}

// probeOne performs one health probe against one peer.
func (c *Client) probeOne(p *peer) {
	resp, err := c.probe.Get(p.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		p.noteFailure(c.downAfter)
		return
	}
	p.noteSuccess(true)
}

// probeLoop drives ProbeOnce on the configured interval until Close.
func (c *Client) probeLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeOnce()
		}
	}
}
