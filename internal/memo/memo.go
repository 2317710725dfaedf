// Package memo implements the content-addressed result cache of the
// analysis stack: a sharded in-memory LRU that maps a canonical fingerprint
// of an analysis request — (delay function, Q, options), hashed by
// internal/core over delay.FingerprintOf — to its computed result, so a
// million identical or overlapping requests cost one walk.
//
// Correctness before speed. A wrong cache hit silently corrupts results, so
// the design is verify-on-use: the map key is a 64-bit fold of the request
// fingerprint (fast, fixed-size), but every entry stores the full
// fingerprint string and Get compares it before answering. A 64-bit
// collision therefore degrades to a miss (counted in memo.collisions) and
// the caller recomputes — the cache can be slow, never wrong. The
// differential battery in internal/core replays tens of thousands of random
// requests cache-on vs cache-off and asserts bit-identical results; the
// collision test forces two requests onto one primary key and asserts the
// second is verified, not served the first's result.
//
// Concurrency: the cache is sharded by primary key; each shard is an
// independently locked LRU list + map, so the sweep worker pool contends
// only when two workers land on one shard. Persist and Warm stream entries
// through internal/journal's checksummed record format, giving warm starts
// across restarts with the same torn-tail salvage and fingerprint-checked
// meta record the durable job store uses (DESIGN.md §13–14).
//
// Metrics (through internal/obs, catalogued in DESIGN.md §14): memo.hits,
// memo.misses, memo.puts, memo.evictions, memo.collisions,
// memo.persist.saved, memo.persist.loaded, memo.persist.rejected; gauges
// memo.entries and memo.bytes.
package memo

import (
	"container/list"
	"sync"

	"fnpr/internal/obs"
)

// DefaultMaxEntries bounds a cache whose Options did not say: generous
// enough for a full Figure-5-scale sweep (specs × grid ≈ hundreds) times a
// large Q-grid campaign, small enough that a resident cache stays in tens of
// megabytes for typical results.
const DefaultMaxEntries = 1 << 16

// defaultShards is the shard count when Options.Shards is zero; a power of
// two so the shard pick is a mask.
const defaultShards = 16

// Options configures a Cache.
type Options struct {
	// Shards is the number of independently locked LRU shards; it is
	// rounded up to a power of two. Zero selects 16.
	Shards int
	// MaxEntries bounds the total entry count across all shards; the
	// least-recently-used entry of the inserting shard is evicted beyond
	// it. Zero selects DefaultMaxEntries; negative means unbounded.
	MaxEntries int
	// Obs receives the cache's counters and gauges; nil collects nothing.
	Obs *obs.Scope
	// Codec serializes values for Persist/Warm. A cache without a codec
	// works fully in memory; Persist and Warm fail cleanly.
	Codec *Codec
}

// Cache is the sharded verify-on-use LRU. Safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	max    int // per-shard entry bound (total bound / shard count)
	codec  *Codec

	hits, misses, puts, evictions, collisions *obs.Counter
	entries, bytes                            *obs.Gauge
}

// shard is one locked LRU: primary key → list element, list front = most
// recently used.
type shard struct {
	mu sync.Mutex
	m  map[uint64]*list.Element
	ll *list.List
}

// entry is one cached value with its verification fingerprint.
type entry struct {
	key    uint64
	verify string
	value  any
	size   int64
}

// New builds a cache.
func New(opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = defaultShards
	}
	// Round up to a power of two for mask addressing.
	p := 1
	for p < n {
		p <<= 1
	}
	max := opts.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	perShard := -1
	if max > 0 {
		perShard = (max + p - 1) / p
		if perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache{
		shards:     make([]shard, p),
		mask:       uint64(p - 1),
		max:        perShard,
		codec:      opts.Codec,
		hits:       mHits.On(opts.Obs),
		misses:     mMisses.On(opts.Obs),
		puts:       mPuts.On(opts.Obs),
		evictions:  mEvictions.On(opts.Obs),
		collisions: mCollisions.On(opts.Obs),
		entries:    mEntries.On(opts.Obs),
		bytes:      mBytes.On(opts.Obs),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*list.Element)
		c.shards[i].ll = list.New()
	}
	return c
}

// Get looks up key and, on a primary-key match, verifies the stored
// fingerprint against verify. A verify mismatch is a counted collision and
// reports a miss — the caller recomputes, so a folded-key collision can cost
// time but never correctness.
func (c *Cache) Get(key uint64, verify string) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[key&c.mask]
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	en := el.Value.(*entry)
	if en.verify != verify {
		sh.mu.Unlock()
		c.collisions.Inc()
		c.misses.Inc()
		return nil, false
	}
	sh.ll.MoveToFront(el)
	v := en.value
	sh.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Put stores value under (key, verify); size is the caller's byte estimate,
// reported through the memo.bytes gauge. An existing entry under the same
// primary key is replaced (last writer wins — with equal verify strings the
// values are results of the same pure analysis, and with different ones the
// replaced entry would have been a collision-miss anyway).
func (c *Cache) Put(key uint64, verify string, value any, size int64) {
	if c == nil {
		return
	}
	sh := &c.shards[key&c.mask]
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		en := el.Value.(*entry)
		c.bytes.Add(float64(size - en.size))
		en.verify, en.value, en.size = verify, value, size
		sh.ll.MoveToFront(el)
		sh.mu.Unlock()
		c.puts.Inc()
		return
	}
	sh.m[key] = sh.ll.PushFront(&entry{key: key, verify: verify, value: value, size: size})
	var evicted *entry
	if c.max > 0 && sh.ll.Len() > c.max {
		back := sh.ll.Back()
		evicted = back.Value.(*entry)
		sh.ll.Remove(back)
		delete(sh.m, evicted.key)
	}
	sh.mu.Unlock()
	c.puts.Inc()
	c.entries.Add(1)
	c.bytes.Add(float64(size))
	if evicted != nil {
		c.evictions.Inc()
		c.entries.Add(-1)
		c.bytes.Add(float64(-evicted.size))
	}
}

// Len returns the total entry count across shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// snapshot copies every live entry (no particular order) for persistence;
// values are not copied, only referenced — cached values are immutable by
// contract.
func (c *Cache) snapshot() []*entry {
	var out []*entry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry))
		}
		sh.mu.Unlock()
	}
	return out
}
