package core

import (
	"context"

	"juryselect/internal/jer"
)

// AltrOptions configures AltrALG (Algorithm 3).
type AltrOptions struct {
	// UseLowerBound enables the Lemma 2 pruning of Line 5–6: before an
	// exact JER evaluation, the Paley–Zygmund lower bound is computed and,
	// when it already exceeds the best JER seen, the candidate size is
	// skipped.
	UseLowerBound bool
	// Algorithm selects the exact JER evaluator (Auto, DP, CBA). The paper
	// assumes Algorithm 2 (CBA) is called; Auto is the practical default.
	Algorithm jer.Algorithm
	// Incremental switches from the paper-faithful per-size re-evaluation
	// to a sweep that maintains the wrong-vote distribution across sizes,
	// reducing the whole run from O(N²·polylog) to O(N²) total. Ablation;
	// results are identical.
	Incremental bool
	// MaxSize caps the largest jury size considered (0 = no cap, sweep to
	// N). Useful when the caller knows the optimum is small.
	MaxSize int
	// Presorted declares cands already validated and sorted ascending by
	// error rate (e.g. an immutable pool-store snapshot shared across
	// requests): SelectAltr skips re-validation and re-sorting and scans
	// the slice as-is, without copying it. The caller owns both
	// invariants; a violated one silently yields a suboptimal jury.
	Presorted bool
	// Ctx, when non-nil, is polled between prefix sizes: cancellation
	// aborts the scan with ctx.Err(). A JER kernel already running for
	// the current size completes normally (kernels are not
	// interruptible), matching the engine's EvaluateAll contract.
	Ctx context.Context
}

// SelectAltr solves JSP under the Altruism Jurors Model with Algorithm 3:
// sort candidates ascending by individual error rate, then for every odd
// prefix size evaluate (or prune) the JER and keep the minimum. Lemma 3
// guarantees the optimal jury of each size is a prefix of the sorted order,
// so the returned jury is exactly optimal.
func SelectAltr(cands []Juror, opts AltrOptions) (Selection, error) {
	sorted := cands
	if !opts.Presorted {
		if err := ValidateCandidates(cands); err != nil {
			return Selection{}, err
		}
		sorted = SortedByErrorRate(cands)
	} else if len(sorted) == 0 {
		return Selection{}, ErrNoCandidates
	}
	maxN := len(sorted)
	if opts.MaxSize > 0 && opts.MaxSize < maxN {
		maxN = opts.MaxSize
	}
	if opts.Incremental {
		return altrIncremental(sorted, maxN, opts)
	}
	return altrFaithful(sorted, maxN, opts)
}

// altrFaithful re-evaluates JER from scratch at every odd prefix size,
// following Algorithm 3 literally. One JER kernel is held across the whole
// scan (and the prefix rates validated once up front), so the N/2
// evaluations reuse the same buffers instead of allocating per size.
func altrFaithful(sorted []Juror, maxN int, opts AltrOptions) (Selection, error) {
	rates := make([]float64, 0, maxN)
	for _, j := range sorted[:maxN] {
		rates = append(rates, j.ErrorRate)
	}
	ev := jer.NewEvaluator()
	best := Selection{JER: 2} // sentinel above any probability
	bestN := 0
	for n := 1; n <= maxN; n += 2 {
		if err := ctxErr(opts.Ctx); err != nil {
			return Selection{}, err
		}
		prefix := rates[:n]
		if opts.UseLowerBound && bestN > 0 {
			// Lines 5–6 of Algorithm 3: the bound is only applicable when
			// γ < 1; otherwise JER is computed directly.
			if lb, usable := jer.LowerBound(prefix); usable && lb > best.JER {
				best.Pruned++
				continue
			}
		}
		// Candidates were validated by SelectAltr; skip the per-prefix scan.
		v, err := ev.ComputeValidated(prefix, opts.Algorithm)
		if err != nil {
			return Selection{}, err
		}
		best.Evaluations++
		if v < best.JER {
			best.JER = v
			bestN = n
		}
	}
	best.Jurors = append([]Juror(nil), sorted[:bestN]...)
	best.Cost = totalCost(best.Jurors)
	return best, nil
}

// ctxErr reports the cancellation state of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// altrIncremental maintains the exact wrong-vote distribution across prefix
// sizes with jer.Sweep, so extending the prefix by two jurors costs O(n)
// instead of a fresh O(n²) or O(n log² n) evaluation.
func altrIncremental(sorted []Juror, maxN int, opts AltrOptions) (Selection, error) {
	sweep := jer.NewSweep()
	best := Selection{JER: 2}
	bestN := 0
	for n := 1; n <= maxN; n += 2 {
		if err := ctxErr(opts.Ctx); err != nil {
			return Selection{}, err
		}
		// Extend the distribution to size n (two appends after the first).
		for sweep.N() < n {
			if err := sweep.Extend(sorted[sweep.N()].ErrorRate); err != nil {
				return Selection{}, err
			}
		}
		if opts.UseLowerBound && bestN > 0 {
			if lb, usable := sweep.LowerBound(); usable && lb > best.JER {
				best.Pruned++
				continue
			}
		}
		v, err := sweep.JER()
		if err != nil {
			return Selection{}, err
		}
		best.Evaluations++
		if v < best.JER {
			best.JER = v
			bestN = n
		}
	}
	best.Jurors = append([]Juror(nil), sorted[:bestN]...)
	best.Cost = totalCost(best.Jurors)
	return best, nil
}
