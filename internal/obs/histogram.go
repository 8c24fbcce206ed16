// Package obs is juryd's zero-dependency observability kit: lock-cheap
// latency histograms, a pooled per-request span recorder with a ring of
// recent traces, and a Prometheus text-exposition writer/parser. It sits
// below every serving package (server, tasks, simul) and allocates
// nothing on the recording paths — an Observe is two atomic adds and a
// CAS loop, a span mark is an append into a preallocated array — so the
// warm select path and the durable vote path stay on their allocation
// diets with instrumentation compiled in.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the histogram's fixed bucket count: bucket 0 holds the
// value 0 and bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 64
// buckets cover every non-negative int64, so there is no overflow bucket
// and no configuration.
const NumBuckets = 64

// Histogram is a power-of-two-bucketed histogram of non-negative int64
// samples (nanoseconds, by convention). All methods are safe for
// concurrent use and Observe never allocates: writers touch only
// atomics, readers take a point-in-time Snapshot. The zero value is
// ready to use, which is what lets servers embed arrays of histograms
// without constructor plumbing.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a sample to its bucket index: bits.Len64 is a single
// LZCNT on amd64, so bucketing costs nothing against the atomics.
func bucketOf(v int64) int { return bits.Len64(uint64(v)) & (NumBuckets - 1) }

// Observe records one sample. Negative samples (a clock step mid-
// measurement) clamp to zero rather than corrupting a bucket index.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Snapshot returns a point-in-time copy of the counters. Count is the
// sum of the bucket loads, so the buckets always add up to Count (and a
// Prometheus +Inf bucket always equals _count). Sum, Max and the
// buckets are loaded individually, so under concurrent writes Sum and
// Max may run a few samples ahead of or behind Count — the usual
// scrape-time contract.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram, mergeable and
// queryable for quantiles.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Mean returns the exact mean of the observed samples (sum and count are
// tracked outside the buckets), or 0 for an empty snapshot.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]): the
// cumulative bucket walk finds the target bucket, then interpolates
// linearly inside its [2^(i-1), 2^i) range. The estimate is exact for
// the tracked extremes (q=1 returns Max) and otherwise within a factor
// of 2 of the true value — the resolution power-of-two buckets buy in
// exchange for fixed memory and atomic-only writes.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	target := int64(q*float64(s.Count-1)) + 1 // rank in [1, Count]
	cum := int64(0)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			if hi > s.Max {
				hi = s.Max // the top occupied bucket ends at the true max
			}
			if hi <= lo {
				return lo
			}
			frac := float64(target-cum-1) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.Max
}

// bucketBounds returns bucket i's value range [lo, hi].
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return int64(1) << (i - 1), int64(1)<<i - 1
}

// Summary is the standard JSON rendering of a latency histogram: the
// fixed quantile set dashboards read, in nanoseconds.
type Summary struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Summary renders the snapshot's standard quantile set.
func (s *HistSnapshot) Summary() Summary {
	return Summary{
		Count:  s.Count,
		MeanNS: s.Mean(),
		P50NS:  s.Quantile(0.50),
		P90NS:  s.Quantile(0.90),
		P99NS:  s.Quantile(0.99),
		P999NS: s.Quantile(0.999),
		MaxNS:  s.Max,
	}
}
