package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errOverloaded is admission control's shed signal: the queue watermark
// was exceeded, so the request is refused immediately (429 with a
// Retry-After hint) instead of parking behind work the server cannot
// absorb. Queue collapse — unbounded waiters piling up behind saturated
// processing slots — is exactly the failure mode this bound exists to
// prevent.
var errOverloaded = errors.New("serve: admission queue full")

// admission is the bounded queue in front of the analysis pipeline: at
// most maxInflight requests hold processing slots at once, at most
// maxQueue more may wait for one, and everything beyond that watermark is
// shed. Waiters respect their request context, so a deadline that expires
// in the queue frees its place without ever touching the engine.
type admission struct {
	slots    chan struct{} // semaphore; capacity = maxInflight
	maxQueue int64

	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

// admit blocks until a processing slot is free and returns its release
// function. It fails fast with errOverloaded when the wait queue is
// already at its watermark, and with ctx.Err() when the request context
// ends first (deadline passed or client hung up while queued).
func (a *admission) admit(ctx context.Context) (release func(), err error) {
	// Fast path: a slot is free, no queueing at all.
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.releaseFn(), nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return nil, errOverloaded
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return a.releaseFn(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseFn builds the idempotent slot release (handlers run it via
// defer, shutdown paths may run it explicitly; double release must not
// corrupt the semaphore).
func (a *admission) releaseFn() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }
}

// snapshot returns the live depth counters for /stats.
func (a *admission) snapshot() (inflight, queued int, admitted, shed uint64) {
	return len(a.slots), int(a.queued.Load()), a.admitted.Load(), a.shed.Load()
}

// maxTrackedClients bounds the rate limiter's bucket map; beyond it,
// fully refilled (idle) buckets are pruned before a new client is
// admitted. An idle bucket is indistinguishable from a brand-new one, so
// pruning never changes any client's observable rate.
const maxTrackedClients = 4096

// tokenBucket is one client's refill state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter applies a per-client token bucket: each client id earns
// rate tokens per second up to burst, and each request spends one. The
// map is guarded by one mutex — the critical section is a few float ops,
// far cheaper than the analysis work behind it.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	clients map[string]*tokenBucket

	limited atomic.Uint64
}

func newRateLimiter(rate, burst float64) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: burst, clients: make(map[string]*tokenBucket)}
}

// allow spends one token of client's bucket. When the bucket is empty it
// returns false and the duration until the next token accrues — the
// Retry-After hint.
func (l *rateLimiter) allow(client string, now time.Time) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[client]
	if b == nil {
		if len(l.clients) >= maxTrackedClients {
			l.prune(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.clients[client] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	l.limited.Add(1)
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// prune drops buckets that have refilled to a full burst: those clients
// have been idle long enough that forgetting them is unobservable. The
// caller holds l.mu.
func (l *rateLimiter) prune(now time.Time) {
	for id, b := range l.clients {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.clients, id)
		}
	}
}

// snapshot returns the tracked-client count and the limited counter.
func (l *rateLimiter) snapshot() (clients int, limited uint64) {
	l.mu.Lock()
	clients = len(l.clients)
	l.mu.Unlock()
	return clients, l.limited.Load()
}
