// Package randx provides the deterministic random-number substrate used by
// every synthetic workload in this repository.
//
// All experiment drivers accept an explicit seed so that every table and
// figure reproduced from the paper is replayable bit-for-bit. The package
// wraps math/rand with the distributions the paper's evaluation section
// needs: truncated normals on an interval (individual error rates ε ∈ (0,1),
// payment requirements r ≥ 0), Zipf/power-law variates (retweet popularity of
// micro-blog users), and a splittable seed scheme so independent subsystems
// (corpus generation, juror sampling, voting simulation) draw from
// independent streams.
package randx

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It is a thin wrapper around
// *rand.Rand that adds the distribution helpers required by the jury
// selection workloads.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with seed. Two Sources constructed with the
// same seed yield identical streams.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream from the parent. The derivation
// mixes the parent seed stream with the label so that distinct labels yield
// decorrelated children, and repeated calls with the same label on identical
// parents yield identical children.
func (s *Source) Split(label string) *Source {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= s.rng.Uint64()
	return New(int64(h))
}

// Float64 returns a uniform variate in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Perm returns a uniformly random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Normal returns a normal variate with the given mean and standard
// deviation, generated with the Box–Muller transform. It intentionally does
// not use rand.NormFloat64 so the stream layout is stable across Go releases.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Box–Muller: u1 must be strictly positive for the logarithm.
	var u1 float64
	for u1 == 0 {
		u1 = s.rng.Float64()
	}
	u2 := s.rng.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// TruncNormal returns a normal(mean, stddev) variate conditioned on the open
// interval (lo, hi), drawn by rejection. The evaluation section of the paper
// generates individual error rates from normal distributions but ε must lie
// in (0,1) (Definition 4), so truncation is the faithful reading.
//
// Rejection can stall when the interval carries negligible mass (e.g. mean
// 0.9 far outside (0, 0.1)); after maxRejects draws the sample is clamped to
// the nearest representable interior point. This keeps workload generation
// total and deterministic while being measure-theoretically indistinguishable
// from true truncation for every configuration used in the experiments.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if !(lo < hi) {
		panic("randx: TruncNormal requires lo < hi")
	}
	if stddev <= 0 {
		// Degenerate distribution: clamp the point mass into the interval.
		return clampOpen(mean, lo, hi)
	}
	const maxRejects = 1024
	for i := 0; i < maxRejects; i++ {
		x := s.Normal(mean, stddev)
		if x > lo && x < hi {
			return x
		}
	}
	return clampOpen(s.Normal(mean, stddev), lo, hi)
}

// clampOpen nudges x into the open interval (lo, hi).
func clampOpen(x, lo, hi float64) float64 {
	eps := (hi - lo) * 1e-9
	if x <= lo {
		return lo + eps
	}
	if x >= hi {
		return hi - eps
	}
	return x
}

// ErrorRates draws n individual error rates from TruncNormal(mean, stddev)
// restricted to (0,1). This is the synthetic-workload generator used by
// Figures 3(a)–3(f).
func (s *Source) ErrorRates(n int, mean, stddev float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.TruncNormal(mean, stddev, 0, 1)
	}
	return out
}

// Requirements draws n payment requirements from TruncNormal(mean, stddev)
// restricted to [0, ∞). Definition 8 only demands r ≥ 0, so the upper side
// is unbounded; we truncate at a generous ceiling to keep rejection total.
func (s *Source) Requirements(n int, mean, stddev float64) []float64 {
	const ceiling = 1e9
	out := make([]float64, n)
	for i := range out {
		r := s.TruncNormal(mean, stddev, 0, ceiling)
		if r < 0 {
			r = 0
		}
		out[i] = r
	}
	return out
}

// Zipf returns integer variates in [1, n] with probability proportional to
// 1/rank^exponent. It uses inversion on the precomputed CDF; construct one
// Zipf per distribution and reuse it.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf distribution over ranks 1..n with the given
// exponent (> 0). Micro-blog retweet popularity is power-law distributed
// (paper §4.1.3), and the synthetic corpus generator relies on this type.
func NewZipf(src *Source, n int, exponent float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf requires n > 0")
	}
	if exponent <= 0 {
		panic("randx: NewZipf requires exponent > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), exponent)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, src: src}
}

// Draw returns a rank in [1, n].
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	// Binary search for the first CDF entry ≥ u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}
