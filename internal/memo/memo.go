// Package memo is juryd's one in-memory result cache: a sharded LRU with
// per-key singleflight. The engine memoizes Jury Error Rates in it, keyed
// on a jury's error-rate multiset, and the server memoizes encoded select
// responses in it, keyed on (pool, version, strategy). Each caller owns
// its key format and supplies the key's 64-bit hash; the cache owns
// residency, recency and the collapsing of concurrent misses. A caller
// that knows some keys can never be probed again drops them with
// DeleteFunc.
package memo

import (
	"sync"
	"sync/atomic"
)

// ShardBits sets the lock-striping width: 2^ShardBits shards, a key's
// shard picked by the top ShardBits bits of its hash. 16 shards keep
// mutex contention negligible at the worker and admission counts juryd
// runs, while each shard's map stays small.
const (
	ShardBits = 4
	Shards    = 1 << ShardBits
)

// Outcome reports how Do served a key.
type Outcome uint8

const (
	// Hit: the value was resident.
	Hit Outcome = iota
	// Computed: this caller ran compute (the flight leader).
	Computed
	// Joined: this caller waited on another caller's in-flight compute
	// and shares its value or error.
	Joined
)

// Counts is a reading of a cache's outcome counters: one count per
// Outcome Do has returned since New.
type Counts struct {
	Hits, Computed, Joined int64
}

// Cache is a sharded LRU of at most ~capacity entries with per-key
// singleflight. It is safe for concurrent use; the zero value is not
// usable, construct with New.
type Cache[K comparable, V any] struct {
	shards                 [Shards]shard[K, V]
	hits, computed, joined atomic.Int64
}

// shard is one lock domain: the resident entries on an intrusive
// recency ring, and the table of in-flight computations.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*entry[K, V]
	flights map[K]*flight[V]
	root    entry[K, V] // ring sentinel: root.next is MRU, root.prev is LRU
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// flight is one computation of a cold key. Joiners block on done and
// read val and err; an error is never inserted, so a failed flight
// leaves the key cold for the next caller.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache bounded to capacity entries in total, split
// evenly across the shards with at least one entry per shard.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	per := max((capacity+Shards-1)/Shards, 1)
	c := &Cache[K, V]{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = per
		sh.entries = make(map[K]*entry[K, V])
		sh.flights = make(map[K]*flight[V])
		sh.root.next, sh.root.prev = &sh.root, &sh.root
	}
	return c
}

// Do returns the value for key. A resident key is served under one
// shard lock without allocating (Hit). A cold key is computed exactly
// once under concurrent demand: the first caller runs compute
// (Computed) while later callers wait for it and share its result
// (Joined). A successful result becomes resident, evicting the shard's
// least recently used entry past capacity; an error reaches the leader
// and every joiner and is not cached. hash must be a well-mixed hash of
// key: its top ShardBits bits pick the shard.
func (c *Cache[K, V]) Do(key K, hash uint64, compute func() (V, error)) (V, Outcome, error) {
	sh := &c.shards[hash>>(64-ShardBits)]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.unlink(e)
		sh.pushFront(e)
		v := e.val
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		c.joined.Add(1)
		<-f.done
		return f.val, Joined, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()

	c.computed.Add(1)
	f.val, f.err = compute()
	sh.mu.Lock()
	delete(sh.flights, key)
	if f.err == nil {
		e := &entry[K, V]{key: key, val: f.val}
		sh.entries[key] = e
		sh.pushFront(e)
		if len(sh.entries) > sh.cap {
			lru := sh.root.prev
			sh.unlink(lru)
			delete(sh.entries, lru.key)
		}
	}
	sh.mu.Unlock()
	close(f.done)
	return f.val, Computed, f.err
}

// DeleteFunc removes every resident entry whose key satisfies del,
// taking each shard's lock in turn. In-flight computations are not
// touched: a flight running during DeleteFunc still inserts its value
// afterwards, and its joiners still share it. del runs under a shard
// lock and must not call back into the cache.
func (c *Cache[K, V]) DeleteFunc(del func(K) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.root.next; e != &sh.root; {
			next := e.next
			if del(e.key) {
				sh.unlink(e)
				delete(sh.entries, e.key)
			}
			e = next
		}
		sh.mu.Unlock()
	}
}

// unlink removes e from the recency ring. Caller holds sh.mu.
func (sh *shard[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e in as most recently used. Caller holds sh.mu.
func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &sh.root
	e.next = sh.root.next
	sh.root.next.prev = e
	sh.root.next = e
}

// Counts reads the outcome counters.
func (c *Cache[K, V]) Counts() Counts {
	return Counts{Hits: c.hits.Load(), Computed: c.computed.Load(), Joined: c.joined.Load()}
}

// ShardLens reports each shard's resident entry count, in shard order,
// from one walk of the shards. Their sum is the cache's size.
func (c *Cache[K, V]) ShardLens() []int {
	out := make([]int, Shards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.entries)
		sh.mu.Unlock()
	}
	return out
}
