package server

import "math"

// The selection cache exploits the paper's central algebraic fact: a
// selection is a pure function of (pool contents, strategy, parameters).
// Pool contents are identified exactly by (name, version) — the
// copy-on-write store bumps the version on every PUT/PATCH and the
// per-name version high-water mark survives DELETE, so a (name, version)
// pair can never denote two different juror sets. Keying the cache on
// (name, version, strategy, canonicalized params) therefore makes
// correctness structural: a write publishes a new version, fresh
// requests build fresh keys, and no request can probe an older version's
// entry again.
//
// Those dead entries are dropped on write, not left to age out of the
// LRU: after a PUT or PATCH through the server succeeds, dropSelects
// removes every entry for an older version of that pool, and after a
// DELETE every version of it. Residency is then the live (pool,
// strategy, budget) keys plus, at most, the flights in progress at each
// write: a miss still computing when the write runs its drop inserts its
// older version afterwards, and the pool's next write removes it. The
// drop only reclaims memory; a late or missing drop (a write straight
// to the task store skips it) leaves entries no request can probe,
// never a stale answer.
//
// The cache is a memo.Cache[selectKey, []byte]: the shared sharded LRU
// with per-key singleflight, so a stampede on one cold key computes
// once. The cached value is the selection's fully encoded JSON response,
// so a warm select does one snapshot read, one cache probe and one
// Write — no engine call, no sort, no encoder — and the probe itself
// does not allocate.

// selectKey identifies one cacheable selection: the pool snapshot
// (name, version) and the canonical strategy parameters. TimeoutMS is
// deliberately absent — it bounds the computation, not the result.
type selectKey struct {
	pool     string
	version  uint64
	strategy string // canonical: the tasks.Select strategy
	budget   float64
}

// hash mixes the key into the memo hash, whose top bits pick the shard.
// FNV-1a over the name and strategy plus a splitmix-style scramble of
// the version keeps sibling versions of one pool on different shards; it
// runs without allocating.
func (k selectKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.pool); i++ {
		h ^= uint64(k.pool[i])
		h *= 1099511628211
	}
	for i := 0; i < len(k.strategy); i++ {
		h ^= uint64(k.strategy[i])
		h *= 1099511628211
	}
	h ^= k.version + 0x9e3779b97f4a7c15
	h ^= math.Float64bits(k.budget)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// dropSelects removes the cached responses for every version of the
// named pool below live. A PUT or PATCH passes the version it published;
// a DELETE passes math.MaxUint64 to drop them all.
func (s *Server) dropSelects(name string, live uint64) {
	if s.cache == nil {
		return
	}
	s.cache.DeleteFunc(func(k selectKey) bool { return k.pool == name && k.version < live })
}

// DefaultSelectCacheEntries bounds the cache's entry count, not its
// bytes. An encoded response grows with the jury: on 1,001-juror pools
// with ε ~ TruncNormal(0.3, 0.15), an altruistic select encodes to
// 40–45 KB and a pay select to 0.3–4.7 KB. 4096 entries therefore cover
// hundreds of pools' live keys, and a cache full of altruistic juries
// on such pools holds ~175 MB.
const DefaultSelectCacheEntries = 4096
