package engine

import (
	"math"
	"slices"
)

// canonicalize copies rates into the scratch buffer sorted ascending — the
// canonical member order — and returns the buffer. Memoized evaluations
// are computed on the canonical order: jer.Compute's floating-point
// rounding is order-sensitive in the last ulp, so evaluating the given
// order would make the cached value depend on which permutation a worker
// happened to compute first. Only cache-miss leaders pay this copy + sort;
// the request path keys the memo with the sort-free hashMultiset (the
// n·log n sort dominated the warm-memo profile at >90% before the
// order-invariant key removed it from hits).
func canonicalize(rates []float64, s *evalScratch) (sorted []float64) {
	s.sorted = append(s.sorted[:0], rates...)
	slices.Sort(s.sorted)
	return s.sorted
}

// hashMultiset returns the memo key of the rates multiset: each rate's
// IEEE-754 bit pattern is avalanche-mixed (the splitmix64 finalizer, so
// near-identical doubles map to uncorrelated words) and the mixed terms
// combine by wrapping addition — a commutative reduction, so every member
// order of the same multiset yields the same key with no sorting, exactly
// the equivalence class under which JER is invariant (Definition 6 depends
// only on the rates). The count folds in before a final avalanche so that
// every output bit — memo.Cache picks the shard from the top four —
// depends on every input.
//
// The key is a hash, not the full multiset, so two distinct multisets can
// in principle collide; with mixed terms the sum behaves uniformly and the
// birthday probability across even a full default cache (2^16 entries) is
// ~2^-33, far below the solvers' round-off sensitivity, and the key costs
// 8 bytes flat instead of 8·n.
func hashMultiset(rates []float64) uint64 {
	var sum uint64
	for _, r := range rates {
		sum += mix64(math.Float64bits(r))
	}
	return mix64(sum + mix64(uint64(len(rates))))
}

// mix64 is the splitmix64 finalizer: an invertible avalanche in which each
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
