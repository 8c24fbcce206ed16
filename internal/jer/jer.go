// Package jer computes the Jury Error Rate (JER) of Definition 6 in the
// paper: the probability that, under Majority Voting, at least half of a
// jury votes against the latent truth,
//
//	JER(J_n) = Pr(C ≥ (n+1)/2),
//
// where C is the Poisson–Binomial count of wrong voters with parameters
// ε_1,…,ε_n (the individual error rates).
//
// Compute evaluates JER with one of three algorithms, mirroring Section
// 3.1 (Auto picks between the last two by jury size):
//
//   - EnumAlgo: the naive O(2^n) enumeration of all "Minorities" (the
//     baseline the paper rejects; retained as ground truth for tests).
//   - DPAlgo: the dynamic-programming method of Algorithm 1 — O(n²) time,
//     O(n) space.
//   - CBAAlgo: the Convolution-Based Algorithm of Algorithm 2 — divide and
//     conquer with FFT merging.
//
// LowerBound implements the Paley–Zygmund pruning bound of Lemma 2.
package jer

import (
	"errors"
	"fmt"

	"juryselect/internal/pbdist"
)

// ErrEmptyJury reports a JER request for zero jurors.
var ErrEmptyJury = errors.New("jer: empty jury")

// FailThreshold returns the minimum number of wrong voters that makes the
// jury fail: ceil((n+1)/2). For the odd sizes the paper assumes this is
// exactly (n+1)/2; for even sizes a tie cannot produce a wrong majority, so
// failure still requires a strict wrong majority.
func FailThreshold(n int) int { return (n + 2) / 2 }

// Algorithm selects the JER evaluation strategy.
type Algorithm int

const (
	// Auto picks DP below a size crossover and CBA above it.
	Auto Algorithm = iota
	// DPAlgo is Algorithm 1 (dynamic programming).
	DPAlgo
	// CBAAlgo is Algorithm 2 (divide & conquer convolution).
	CBAAlgo
	// EnumAlgo is the naive exponential enumeration; only valid for n ≤ 25.
	EnumAlgo
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case DPAlgo:
		return "dp"
	case CBAAlgo:
		return "cba"
	case EnumAlgo:
		return "enum"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// autoCrossover is the jury size above which Auto switches from DP to CBA.
// DP is O(n²) with a tiny constant; CBA wins for large juries.
const autoCrossover = 512

// Compute evaluates JER(rates) with the chosen algorithm. It is a thin
// wrapper over a pooled Evaluator: after the pool is warm a call performs
// no heap allocation on the DP and CBA paths. Hot loops that evaluate many
// juries should hold their own Evaluator instead (one Get/Put pair per
// call is the only overhead this wrapper adds).
func Compute(rates []float64, algo Algorithm) (float64, error) {
	e := evaluatorPool.Get().(*Evaluator)
	v, err := e.Compute(rates, algo)
	evaluatorPool.Put(e)
	return v, err
}

// Distribution returns the exact PMF of the number of wrong voters using
// the divide-and-conquer convolution of Algorithm 2: the juror range is
// split at its floor midpoint, each half's PMF is obtained the same way,
// and halves merge by polynomial multiplication (convolution,
// FFT-accelerated for large blocks). The merge tree is evaluated
// iteratively on a pooled Evaluator (see Evaluator.distribution), visiting
// the same merges in the same order as the recursive formulation, so the
// values are unchanged. The result has length len(rates)+1; entry k is
// Pr(C = k). Rates must be valid; callers that accept external input
// should use Compute which validates.
func Distribution(rates []float64) []float64 {
	e := evaluatorPool.Get().(*Evaluator)
	pmf := e.distribution(rates)
	out := make([]float64, len(pmf))
	copy(out, pmf)
	evaluatorPool.Put(e)
	return out
}

// tailSum returns Σ pmf[i] for i ≥ k, clamped to [0,1]. Whichever side of
// the PMF is shorter is summed (the tail directly, or 1 − head), and the
// sum is Kahan-compensated (pbdist.KahanSum): at the paper's large jury
// sizes a plain left-to-right sum over thousands of near-cancelling
// round-off-bearing terms drifts by ~n·ulp, which compensation removes
// (see TestTailSumCompensation).
func tailSum(pmf []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k >= len(pmf) {
		return 0
	}
	var tail float64
	if len(pmf)-k <= k {
		tail = pbdist.KahanSum(pmf[k:])
	} else {
		tail = 1 - pbdist.KahanSum(pmf[:k])
	}
	if tail < 0 {
		return 0
	}
	if tail > 1 {
		return 1
	}
	return tail
}

// LowerBound computes the Paley–Zygmund lower bound of Lemma 2:
//
//	JER(J_n) ≥ (1-γ)²μ² / ((1-γ)²μ² + σ²),  γ = ((n+1)/2)/μ,
//
// with μ = Σε_i and σ² = Σε_i(1-ε_i). The bound is only valid when
// γ ∈ (0,1), i.e. when the expected number of wrong voters already exceeds
// the failure threshold; usable reports whether that held. When usable is
// false the caller must fall back to an exact evaluation, exactly as
// Algorithm 3 does on its γ ≥ 1 branch.
func LowerBound(rates []float64) (bound float64, usable bool) {
	n := len(rates)
	if n == 0 {
		return 0, false
	}
	mu, sigma2 := 0.0, 0.0
	for _, e := range rates {
		mu += e
		sigma2 += e * (1 - e)
	}
	return LowerBoundMoments(n, mu, sigma2)
}

// LowerBoundMoments is LowerBound when μ and σ² are already known, e.g.
// maintained incrementally during a prefix sweep. It costs O(1).
func LowerBoundMoments(n int, mu, sigma2 float64) (bound float64, usable bool) {
	if n == 0 || mu <= 0 {
		return 0, false
	}
	gamma := float64(FailThreshold(n)) / mu
	if gamma <= 0 || gamma >= 1 {
		return 0, false
	}
	t := (1 - gamma) * mu
	t2 := t * t
	return t2 / (t2 + sigma2), true
}

// Sweep incrementally evaluates JER over growing prefixes of a juror
// ordering. Each Extend costs O(m) where m is the current prefix length, so
// sweeping all prefixes of N jurors costs O(N²) total — asymptotically the
// same as a single DP evaluation of the full set, versus O(ΣN n log n) for
// re-running CBA at every size as Algorithm 3 does literally. This is the
// "incremental sweep" ablation of DESIGN.md.
type Sweep struct {
	dist   pbdist.Dist
	mu     float64
	sigma2 float64
}

// NewSweep returns an empty sweep.
func NewSweep() *Sweep { return &Sweep{} }

// Extend appends one juror with the given error rate.
func (s *Sweep) Extend(rate float64) error {
	if err := s.dist.Append(rate); err != nil {
		return err
	}
	s.mu += rate
	s.sigma2 += rate * (1 - rate)
	return nil
}

// N returns the current prefix length.
func (s *Sweep) N() int { return s.dist.N() }

// JER returns the Jury Error Rate of the current prefix. It costs O(n) in
// the prefix length (a tail sum over the maintained distribution).
func (s *Sweep) JER() (float64, error) {
	n := s.dist.N()
	if n == 0 {
		return 0, ErrEmptyJury
	}
	return s.dist.TailAtLeast(FailThreshold(n)), nil
}

// LowerBound returns the Lemma 2 bound for the current prefix in O(1),
// using incrementally maintained moments.
func (s *Sweep) LowerBound() (bound float64, usable bool) {
	return LowerBoundMoments(s.dist.N(), s.mu, s.sigma2)
}
