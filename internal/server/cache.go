package server

import "math"

// The selection cache exploits the paper's central algebraic fact: a
// selection is a pure function of (pool contents, strategy, parameters).
// Pool contents are identified exactly by (name, version) — the
// copy-on-write store bumps the version on every PUT/PATCH and the
// per-name version high-water mark survives DELETE, so a (name, version)
// pair can never denote two different juror sets. Keying the cache on
// (name, version, strategy, canonicalized params) therefore makes
// invalidation structural: a write publishes a new version, fresh
// requests build fresh keys, and entries for dead versions simply age
// out of the LRU. There is no invalidation path to get wrong.
//
// The cache is a memo.Cache[selectKey, []byte]: the shared sharded LRU
// with per-key singleflight, so a stampede on one cold key computes
// once. The cached value is the selection's fully encoded JSON response,
// so a warm select does one snapshot read, one cache probe and one
// Write — no engine call, no sort, no encoder — and the probe itself
// does not allocate.

// selectKind canonicalizes the (model, exact) request pair.
type selectKind uint8

const (
	kindAltr selectKind = iota
	kindPay
	kindPayExact
)

// selectKey identifies one cacheable selection: the pool snapshot
// (name, version) and the canonical strategy parameters. TimeoutMS is
// deliberately absent — it bounds the computation, not the result.
type selectKey struct {
	pool    string
	version uint64
	kind    selectKind
	budget  float64
}

// hash mixes the key into the memo hash, whose top bits pick the shard.
// FNV-1a over the name plus a splitmix-style scramble of the version keeps
// sibling versions of one pool on different shards; it runs without
// allocating.
func (k selectKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.pool); i++ {
		h ^= uint64(k.pool[i])
		h *= 1099511628211
	}
	h ^= k.version + 0x9e3779b97f4a7c15
	h ^= uint64(k.kind) << 56
	h ^= math.Float64bits(k.budget)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// DefaultSelectCacheEntries bounds the cache. 4096 entries cover
// hundreds of pools × the handful of live (version, params) pairs each
// has at any moment; at roughly 1 KiB of encoded response per jury the
// worst case is a few MiB.
const DefaultSelectCacheEntries = 4096
