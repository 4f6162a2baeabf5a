// Package cache provides the sharded, concurrency-safe LRU behind the
// engine's content-addressed analysis cache. Keys are opaque strings (the
// engine uses hex content hashes); values are generic. The key space is
// split over fixed shards so concurrent analysis workers and HTTP request
// handlers mostly lock disjoint mutexes, and every shard keeps its own
// LRU list plus hit/miss/eviction counters that Stats aggregates into one
// snapshot.
package cache

import (
	"container/list"
	"sync"
)

// numShards is the fixed shard fan-out. 16 keeps lock contention low for
// the worker-pool sizes this repository uses while staying cheap for tiny
// caches (a shard is only a mutex, a map and an empty list until used).
const numShards = 16

// Stats is a point-in-time snapshot of the cache counters, aggregated
// over all shards. Its JSON form is the body of /v1/stats' cache section.
type Stats struct {
	// Capacity is the configured maximum entry count.
	Capacity int `json:"capacity,omitempty"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
	// Hits and Misses count Get outcomes; Evictions counts entries
	// dropped from the cold end to make room.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

type entry[V any] struct {
	key string
	val V
}

type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element
	order    *list.List // front = most recently used

	hits, misses, evictions uint64
}

func newShard[V any](capacity int) *shard[V] {
	return &shard[V]{
		capacity: capacity,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

func (s *shard[V]) get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.hits++
		s.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

func (s *shard[V]) put(key string, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&entry[V]{key: key, val: val})
	for s.order.Len() > s.capacity {
		cold := s.order.Back()
		s.order.Remove(cold)
		delete(s.items, cold.Value.(*entry[V]).key)
		s.evictions++
	}
}

func (s *shard[V]) snapshot(st *Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Entries += s.order.Len()
	st.Hits += s.hits
	st.Misses += s.misses
	st.Evictions += s.evictions
}

// Cache is a sharded LRU from string keys to V values. All methods are
// safe for concurrent use.
type Cache[V any] struct {
	shards   []*shard[V]
	capacity int
}

// New builds a cache holding at most ~capacity entries (capacity < 1 is
// clamped to 1). The capacity is spread evenly over min(16, capacity)
// shards, each of which evicts its own least-recently-used entry
// independently — the usual sharded approximation of a global LRU order,
// so the entry bound is capacity rounded up to a multiple of the shard
// count, and eviction order is exact only per shard.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	shards := numShards
	if capacity < shards {
		shards = capacity
	}
	c := &Cache[V]{capacity: capacity, shards: make([]*shard[V], shards)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = newShard[V](per)
	}
	return c
}

// shardFor hashes the key (FNV-1a) to pick its shard. The engine's keys
// are uniformly distributed content hashes, so any cheap mix suffices.
//
//graph2lint:noalloc
func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.shardFor(key).get(key)
}

// Peek returns the cached value for key without counting a hit or miss
// and without promoting the entry in the LRU order. It exists for
// out-of-band readers — the peer-fill cache protocol serves other
// replicas' lookups through it — whose traffic must not distort the
// owner's own recency ordering or telemetry.
func (c *Cache[V]) Peek(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key → val, evicting cold entries as needed.
func (c *Cache[V]) Put(key string, val V) {
	c.shardFor(key).put(key, val)
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-shard counters into one snapshot.
func (c *Cache[V]) Stats() Stats {
	st := Stats{Capacity: c.capacity}
	for _, s := range c.shards {
		s.snapshot(&st)
	}
	return st
}
