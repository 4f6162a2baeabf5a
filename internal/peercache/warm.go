package peercache

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"graph2par"
	"graph2par/internal/serve"
)

// warmItem is one queued push. A nil-report item with done set is a
// flush sentinel: the worker closes done when it reaches it, proving
// every earlier item has been pushed.
type warmItem struct {
	key    string
	report graph2par.LoopReport
	done   chan struct{}
}

// Warm implements graph2par.CacheWarmer: called for every locally
// computed report the engine caches, it replicates the entry to the
// key's other rendezvous owners with an authenticated
// POST /v1/cache/<key>. Two situations produce such a report:
//
//   - this replica is one of the key's owners (it computed its own
//     keyspace) — the push keeps the other owner's copy warm, so either
//     of them can restart without losing the shard;
//   - this replica computed a peer-owned key because the owners were
//     down or missing it — the push converges the entry back onto its
//     owners, recovering the fleet's peer-hit rate after a restart.
//
// The call itself is non-blocking (the engine invokes it inline from
// analysis workers): items go onto a bounded queue drained by one
// background goroutine, and when the queue is full the item is dropped
// and counted — warming is an optimization, never backpressure.
func (c *Client) Warm(key string, r graph2par.LoopReport) {
	if c.warmCh == nil {
		return // warming disabled (no fingerprint configured)
	}
	if len(c.peerOwners(key)) == 0 {
		return // sole owner of the key (or no live peers): nothing to push
	}
	select {
	case c.warmCh <- warmItem{key: key, report: r}:
	default:
		c.warmDropped.Add(1)
	}
}

// Flush blocks until every warm push enqueued before the call has been
// attempted (tests use it to make the asynchronous protocol
// deterministic). No-op when warming is disabled or the client is
// closed.
func (c *Client) Flush() {
	if c.warmCh == nil {
		return
	}
	done := make(chan struct{})
	select {
	case c.warmCh <- warmItem{done: done}:
	case <-c.stop:
		return
	}
	select {
	case <-done:
	case <-c.stop:
	}
}

// warmLoop drains the warm queue until Close.
func (c *Client) warmLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case item := <-c.warmCh:
			if item.done != nil {
				close(item.done)
				continue
			}
			c.pushWarm(item)
		}
	}
}

// pushWarm POSTs one report to each of the key's live co-owners.
// Ownership is re-resolved at push time (membership may have changed
// since enqueue), and outcomes feed the same health state as fetches.
func (c *Client) pushWarm(item warmItem) {
	targets := c.peerOwners(item.key)
	if len(targets) == 0 {
		return
	}
	body, err := json.Marshal(item.report)
	if err != nil {
		c.warmErrors.Add(1)
		return
	}
	for _, p := range targets {
		req, err := http.NewRequest(http.MethodPost, p.base+"/v1/cache/"+item.key, bytes.NewReader(body))
		if err != nil {
			c.warmErrors.Add(1)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.FingerprintHeader, c.fingerprint)
		resp, err := c.http.Do(req)
		if err != nil {
			c.warmErrors.Add(1)
			p.errors.Add(1)
			p.noteFailure(c.downAfter)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			c.warmsSent.Add(1)
			p.warms.Add(1)
			p.noteSuccess(false)
			continue
		}
		// A 4xx/5xx answer: the peer is alive but refused (e.g. fingerprint
		// mismatch or cache disabled). Health-wise that is an answer; it
		// only counts as a warm error.
		c.warmErrors.Add(1)
		p.noteSuccess(false)
	}
}
