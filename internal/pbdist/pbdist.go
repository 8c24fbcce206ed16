// Package pbdist implements the Poisson–Binomial distribution: the law of
// the number of successes among independent Bernoulli trials with
// heterogeneous probabilities.
//
// In the paper's terminology the trials are jurors, a "success" is a wrong
// vote, and the trial probabilities are the individual error rates ε_i
// (Definition 4). The Carelessness C of Definition 5 — the number of wrong
// jurors in a voting — is exactly Poisson–Binomial distributed, and the Jury
// Error Rate of Definition 6 is the upper tail Pr(C ≥ (n+1)/2).
//
// The package provides an exact PMF maintained by sequential convolution,
// incremental extension (Append) and retraction (Pop) used by the exact
// OPT enumerator, tail sums, and a brute-force enumeration evaluator used
// as ground truth in tests.
package pbdist

import (
	"errors"
	"fmt"
	"math"
)

// ErrRateOutOfRange reports an individual error rate outside (0,1).
var ErrRateOutOfRange = errors.New("pbdist: error rate outside (0,1)")

// ValidateRates checks that every rate lies in the open interval (0,1) as
// Definition 4 requires, and that none is NaN.
func ValidateRates(rates []float64) error {
	for i, e := range rates {
		if math.IsNaN(e) || e <= 0 || e >= 1 {
			return fmt.Errorf("%w: rates[%d] = %g", ErrRateOutOfRange, i, e)
		}
	}
	return nil
}

// Dist is the exact distribution of the number of successes among the trials
// appended so far. The zero value is the distribution of zero trials (point
// mass at 0 successes); it is ready to use.
type Dist struct {
	// pmf[k] = Pr(C = k) over the current trials. Invariant: len(pmf) =
	// number of trials + 1 once initialized; nil means "no trials yet".
	pmf []float64
	// rates records the probabilities of the appended trials, enabling Pop.
	rates []float64
}

// N returns the number of trials currently in the distribution.
func (d *Dist) N() int { return len(d.rates) }

// Reset empties the distribution back to zero trials, keeping its
// buffers. Later Appends compute exactly what they would on a fresh Dist:
// the point mass is restored, not reached by Pops with their round-off.
func (d *Dist) Reset() {
	if d.pmf != nil {
		d.pmf = d.pmf[:1]
		d.pmf[0] = 1
	}
	d.rates = d.rates[:0]
}

// Append adds one trial with success probability p.
func (d *Dist) Append(p float64) error {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return fmt.Errorf("%w: %g", ErrRateOutOfRange, p)
	}
	d.appendUnchecked(p)
	return nil
}

func (d *Dist) appendUnchecked(p float64) {
	n := len(d.rates)
	if d.pmf == nil {
		d.pmf = make([]float64, 1, 16)
		d.pmf[0] = 1
	}
	// In-place convolution with [1-p, p], walking downward so each source
	// entry is consumed before being overwritten.
	d.pmf = append(d.pmf, 0)
	q := 1 - p
	for k := n + 1; k >= 1; k-- {
		d.pmf[k] = d.pmf[k]*q + d.pmf[k-1]*p
	}
	d.pmf[0] *= q
	d.rates = append(d.rates, p)
}

// Pop removes the most recently appended trial, restoring the distribution
// to its previous state by deconvolution. It returns an error when no trials
// remain.
//
// Deconvolution divides by either p or 1-p; to stay numerically stable the
// recursion runs forward (dividing by 1-p) when p < 1/2 and backward
// (dividing by p) otherwise, so the divisor is always ≥ 1/2.
func (d *Dist) Pop() error {
	n := len(d.rates)
	if n == 0 {
		return errors.New("pbdist: Pop on empty distribution")
	}
	p := d.rates[n-1]
	q := 1 - p
	pmf := d.pmf
	if p < 0.5 {
		// Forward: prev[0] = pmf[0]/q; prev[k] = (pmf[k] - prev[k-1]·p)/q.
		prev := 0.0
		for k := 0; k < n; k++ {
			prev = (pmf[k] - prev*p) / q
			pmf[k] = clampNoise(prev)
		}
	} else {
		// Backward: prev[n-1] = pmf[n]/p; prev[k-1] = (pmf[k] - prev[k]·q)/p.
		// The original pmf[k-1] must be saved before the slot is overwritten
		// with the recovered value, hence the cur/next shuffle.
		prev := 0.0
		next := pmf[n]
		for k := n; k >= 1; k-- {
			cur := next
			next = pmf[k-1]
			prev = (cur - prev*q) / p
			pmf[k-1] = clampNoise(prev)
		}
	}
	d.pmf = pmf[:n]
	d.rates = d.rates[:n-1]
	return nil
}

// clampNoise stores deconvolution round-off below zero as zero. The
// recurrence continues from the unclamped value, so clamping as each slot
// is written gives the bits a separate clamping pass would.
func clampNoise(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// TailAtLeast returns Pr(C ≥ k). For k ≤ 0 it returns 1; for k > N it
// returns 0. With k = (n+1)/2 this is exactly the Jury Error Rate of
// Definition 6.
func (d *Dist) TailAtLeast(k int) float64 {
	if k <= 0 {
		return 1
	}
	if d.pmf == nil || k >= len(d.pmf) {
		return 0
	}
	// Sum the smaller side for accuracy, exploiting total mass 1. The sum
	// is Kahan-compensated: plain accumulation over thousands of PMF
	// entries drifts by O(n) ulps, which matters when solvers compare
	// near-tied tails (see TestTailAtLeastCompensation).
	var tail float64
	if len(d.pmf)-k <= k {
		tail = KahanSum(d.pmf[k:])
	} else {
		tail = 1 - KahanSum(d.pmf[:k])
	}
	if tail < 0 {
		return 0
	}
	if tail > 1 {
		return 1
	}
	return tail
}

// KahanSum returns the compensated (Kahan) sum of xs: the running error of
// each addition is recovered and fed back, keeping the total rounding
// error O(1) ulps instead of growing with len(xs). It is the summation
// primitive behind every tail sum in this module (here and in jer).
func KahanSum(xs []float64) float64 {
	sum, comp := 0.0, 0.0
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// TailEnum computes Pr(C ≥ k) for the given rates by enumerating all 2^n
// outcomes. It is exponential and exists purely as ground truth for tests
// and for the paper's "naive method" baseline (Section 2.1.2); n is capped
// at 25 to bound runtime.
func TailEnum(rates []float64, k int) (float64, error) {
	if err := ValidateRates(rates); err != nil {
		return 0, err
	}
	n := len(rates)
	if n > 25 {
		return 0, fmt.Errorf("pbdist: TailEnum supports at most 25 trials, got %d", n)
	}
	if k <= 0 {
		return 1, nil
	}
	if k > n {
		return 0, nil
	}
	total := 0.0
	for mask := 0; mask < 1<<uint(n); mask++ {
		// Count the set bits first; skip probability work for small sets.
		c := popcount(mask)
		if c < k {
			continue
		}
		p := 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				p *= rates[i]
			} else {
				p *= 1 - rates[i]
			}
		}
		total += p
	}
	return total, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
