package core

import (
	"errors"

	"juryselect/internal/jer"
	"juryselect/internal/pbdist"
)

// PairPolicy controls what happens to the buffered "pair" candidate when a
// pair admission fails (Algorithm 4, Lines 9–15).
type PairPolicy int

const (
	// PairBlocking is the literal pseudocode: the buffered pair persists
	// until some later candidate succeeds alongside it. A cheap but noisy
	// candidate can therefore occupy the slot forever and freeze the jury
	// at its seed (see the examples/budget walk-through).
	PairBlocking PairPolicy = iota
	// PairSliding is an extension (not in the paper): when admission
	// fails, the buffered pair advances to the newer candidate if that
	// candidate is itself affordable, so one bad candidate cannot block
	// all of its successors. The result is never worse than the seed and
	// in heterogeneous markets often matches the exact optimum; the
	// ablation harness quantifies the difference.
	PairSliding
)

// PayOptions configures PayALG (Algorithm 4).
type PayOptions struct {
	// Budget is the non-negative budget B of Definition 8.
	Budget float64
	// Strict replicates the paper's pseudocode bookkeeping literally: the
	// accumulated requirement r is never increased after the seed juror
	// (the pseudocode omits the update on Line 13). The default (false)
	// applies the obvious fix r += r_pair + r_m, so the budget constraint
	// actually binds. See DESIGN.md §5.
	Strict bool
	// Pairing selects the pair-slot policy; the default PairBlocking is
	// the published pseudocode.
	Pairing PairPolicy
	// Evaluate optionally overrides the exact JER evaluator used for the
	// admission checks — e.g. an engine-cached evaluator, so the repeated
	// sub-juries of a budget sweep are computed once. nil selects the
	// default: an incrementally maintained wrong-vote distribution
	// (pbdist.Dist Append/Pop, as SelectOpt uses), so each admission check
	// costs O(n) instead of a fresh O(n²) evaluation and allocates
	// nothing. The override must be a deterministic exact JER of the rate
	// multiset; it may differ from the default in the last ulp (e.g. the
	// engine evaluates memoized juries in canonical order), which can flip
	// admissions only on sub-round-off ties. The slice passed to Evaluate
	// is reused between calls; the evaluator must not retain it.
	Evaluate func(rates []float64) (float64, error)
}

// SelectPay solves JSP under the Pay-as-you-go Model with the greedy
// heuristic of Algorithm 4:
//
//  1. Sort candidates ascending by ε_i·r_i (quality-for-money).
//  2. Seed the jury with the first affordable candidate.
//  3. Scan the rest, buffering one candidate as the "pair"; when a second
//     affordable candidate appears, admit the pair of them only if doing so
//     does not increase the jury's JER (juries must stay odd, hence growth
//     by two).
//
// JSP on PayM is NP-hard (Lemma 4), so the result is heuristic; SelectOpt
// provides the exponential exact answer for small candidate sets.
func SelectPay(cands []Juror, opts PayOptions) (Selection, error) {
	if err := ValidateCandidates(cands); err != nil {
		return Selection{}, err
	}
	if opts.Budget < 0 {
		return Selection{}, errors.New("core: negative budget")
	}
	sorted := sortJurors(cands, nil, true)

	// Lines 3–5: find the first candidate whose requirement fits the
	// budget on its own.
	seed := -1
	for i, j := range sorted {
		if j.Cost <= opts.Budget {
			seed = i
			break
		}
	}
	if seed == -1 {
		return Selection{}, ErrNoFeasibleJury
	}

	// The greedy's hot loop is its admission checks. The default evaluator
	// maintains the jury's exact wrong-vote distribution incrementally:
	// trying a pair is two Appends (O(n) each) plus a tail sum, and a
	// rejection two Pops — the same discipline SelectOpt uses — instead of
	// re-deriving the distribution of every trial jury from scratch. An
	// Evaluate hook replaces this entirely (it sees the full trial rate
	// slice, built in a reused buffer).
	hook := opts.Evaluate
	var dist payDist
	var trial []float64
	if hook != nil {
		trial = make([]float64, 0, len(sorted))
	}

	sel := Selection{}
	jury := []Juror{sorted[seed]}
	rates := []float64{sorted[seed].ErrorRate}
	spent := sorted[seed].Cost
	var curJER float64
	var err error
	if hook != nil {
		curJER, err = hook(rates)
	} else {
		curJER = dist.extend(sorted[seed].ErrorRate)
	}
	if err != nil {
		return Selection{}, err
	}
	sel.Evaluations++

	// Lines 8–16: grow by pairs.
	havePair := false
	var pair Juror
	for m := seed + 1; m < len(sorted); m++ {
		cand := sorted[m]
		if !havePair {
			if spent+cand.Cost <= opts.Budget {
				pair = cand
				havePair = true
			}
			continue
		}
		if spent+pair.Cost+cand.Cost > opts.Budget {
			slidePair(&pair, cand, spent, opts)
			continue
		}
		var v float64
		if hook != nil {
			trial = append(append(trial[:0], rates...), pair.ErrorRate, cand.ErrorRate)
			v, err = hook(trial)
			if err != nil {
				return Selection{}, err
			}
		} else {
			dist.push(pair.ErrorRate)
			v = dist.extend(cand.ErrorRate)
		}
		sel.Evaluations++
		if v <= curJER {
			jury = append(jury, pair, cand)
			rates = append(rates, pair.ErrorRate, cand.ErrorRate)
			curJER = v
			if !opts.Strict {
				spent += pair.Cost + cand.Cost
			}
			havePair = false
		} else {
			if hook == nil {
				dist.retract(2)
			}
			slidePair(&pair, cand, spent, opts)
		}
	}

	sel.Jurors = jury
	sel.JER = curJER
	sel.Cost = totalCost(jury)
	return sel, nil
}

// payDist wraps the incremental Poisson–Binomial distribution with the
// panic-on-impossible-error convention of the solvers: rates were validated
// up front, so Append/Pop cannot fail.
type payDist struct {
	d pbdist.Dist
}

// push appends one juror's rate.
func (p *payDist) push(rate float64) {
	if err := p.d.Append(rate); err != nil {
		panic(err)
	}
}

// extend is push followed by the JER of the grown jury.
func (p *payDist) extend(rate float64) float64 {
	p.push(rate)
	return p.d.TailAtLeast(jer.FailThreshold(p.d.N()))
}

// retract removes the k most recently appended jurors.
func (p *payDist) retract(k int) {
	for i := 0; i < k; i++ {
		if err := p.d.Pop(); err != nil {
			panic(err)
		}
	}
}

// slidePair advances the buffered pair to cand under PairSliding when cand
// is itself an affordable pair candidate; when cand is unaffordable the old
// pair is kept (it may still combine with a cheaper later candidate). Under
// PairBlocking it is a no-op.
func slidePair(pair *Juror, cand Juror, spent float64, opts PayOptions) {
	if opts.Pairing != PairSliding {
		return
	}
	if spent+cand.Cost <= opts.Budget {
		*pair = cand
	}
}
