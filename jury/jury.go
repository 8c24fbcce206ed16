// Package jury is the public API of the jury-selection library: selecting a
// subset of crowd workers ("jurors") on a micro-blog service so that their
// Majority Voting answer to a binary decision-making task has the lowest
// possible probability of being wrong (the Jury Error Rate, JER).
//
// It implements "Whom to Ask? Jury Selection for Decision Making Tasks on
// Micro-blog Services" (Cao, She, Tong, Chen; PVLDB 5(11), 2012):
//
//   - JER computes the exact failure probability of a jury under Majority
//     Voting (Definition 6), via dynamic programming (Algorithm 1) or
//     divide-and-conquer FFT convolution (Algorithm 2).
//   - SelectAltruistic solves the Jury Selection Problem exactly under the
//     Altruism model (Algorithm 3, "AltrALG").
//   - SelectBudgeted runs the greedy heuristic for the NP-hard budgeted
//     model (Algorithm 4, "PayALG").
//   - SelectExact enumerates the true optimum for small candidate sets,
//     the ground truth used by the paper's effectiveness experiments.
//   - MajorityVote and Simulate provide the voting scheme itself and a
//     task simulator for empirical validation.
//
// A quick start:
//
//	cands := []jury.Juror{
//		{ID: "A", ErrorRate: 0.1}, {ID: "B", ErrorRate: 0.2},
//		{ID: "C", ErrorRate: 0.2}, {ID: "D", ErrorRate: 0.3},
//		{ID: "E", ErrorRate: 0.3},
//	}
//	sel, err := jury.SelectAltruistic(cands)
//	// sel.Jurors is the optimal jury, sel.JER its exact error rate.
//
// Candidate attributes (ErrorRate, Cost) are usually estimated from
// micro-blog data; package microblog implements the paper's estimation
// pipeline (retweet graph + HITS/PageRank + normalization).
package jury

import (
	"context"
	"sort"

	"juryselect/internal/core"
	"juryselect/internal/jer"
	"juryselect/internal/randx"
	"juryselect/internal/voting"
)

// Juror is one candidate worker: an identifier, an individual error rate
// ε ∈ (0,1) (the probability of voting against the latent truth), and a
// payment requirement used by the budgeted model.
type Juror = core.Juror

// Selection is the outcome of a selection run: the chosen jurors, their
// exact JER, total cost, and solver counters.
type Selection = core.Selection

// Model decides which juries are allowed (Definitions 7 and 8).
type Model = core.Model

// Altruism is the Altruism Jurors Model: every jury is allowed and jurors
// require no payment (Definition 7).
var Altruism Model = core.AltrM{}

// PayAsYouGo returns the Pay-as-you-go Model with the given budget
// (Definition 8): a jury is allowed when its total payment requirement does
// not exceed the budget.
func PayAsYouGo(budget float64) Model { return core.PayM{Budget: budget} }

// Errors re-exported for callers that branch on failure modes.
var (
	// ErrNoCandidates reports an empty candidate set.
	ErrNoCandidates = core.ErrNoCandidates
	// ErrNoFeasibleJury reports that no candidate fits the budget.
	ErrNoFeasibleJury = core.ErrNoFeasibleJury
	// ErrEmptyJury reports a JER request over zero jurors.
	ErrEmptyJury = jer.ErrEmptyJury
)

// JER returns the exact Jury Error Rate of a jury with the given individual
// error rates: the probability that at least half of the jurors vote
// wrongly under Majority Voting. The evaluator is chosen automatically
// (dynamic programming for small juries, FFT convolution for large ones).
func JER(errorRates []float64) (float64, error) {
	return jer.Compute(errorRates, jer.Auto)
}

// JERDistribution returns the full probability mass function of the number
// of wrong voters; entry k is the probability that exactly k jurors err.
// The rates must lie in (0,1).
func JERDistribution(errorRates []float64) ([]float64, error) {
	if _, err := jer.Compute(errorRates, jer.Auto); err != nil {
		return nil, err
	}
	return jer.Distribution(errorRates), nil
}

// JERLowerBound returns the O(n) Paley–Zygmund lower bound on the JER
// (Lemma 2) and whether the bound is applicable (it requires the expected
// number of wrong voters to exceed the majority threshold).
func JERLowerBound(errorRates []float64) (bound float64, usable bool) {
	return jer.LowerBound(errorRates)
}

// SelectAltruistic solves the Jury Selection Problem exactly under the
// Altruism model: it returns the odd-size jury with globally minimal JER.
// The candidates' Cost fields are ignored.
func SelectAltruistic(candidates []Juror) (Selection, error) {
	return core.SelectAltr(candidates, core.AltrOptions{Incremental: true})
}

// SelectBudgeted runs the PayALG greedy heuristic: it returns an odd-size
// jury whose total cost respects the budget, grown in pairs sorted by the
// ε·cost product and admitted only when the JER improves. The underlying
// problem is NP-hard, so the result may be suboptimal; compare with
// SelectExact on small inputs.
func SelectBudgeted(candidates []Juror, budget float64) (Selection, error) {
	return core.SelectPay(candidates, core.PayOptions{Budget: budget})
}

// SelectExact enumerates every allowed jury and returns the true optimum,
// sharding the enumeration across runtime.GOMAXPROCS(0) goroutines; the
// result is bit-for-bit identical on every core count. It is exponential
// in len(candidates) and rejects sets larger than MaxExactCandidates.
func SelectExact(candidates []Juror, budget float64) (Selection, error) {
	return core.SelectOpt(context.TODO(), candidates, budget, 0)
}

// MaxExactCandidates is the largest candidate set SelectExact accepts.
const MaxExactCandidates = core.MaxOptCandidates

// Select dispatches on the model: Altruism routes to SelectAltruistic and
// PayAsYouGo to SelectBudgeted.
func Select(candidates []Juror, m Model) (Selection, error) {
	switch mm := m.(type) {
	case core.AltrM:
		return SelectAltruistic(candidates)
	case core.PayM:
		return SelectBudgeted(candidates, mm.Budget)
	default:
		// Unknown models fall back to the altruistic solver filtered by
		// Allowed on the result; the two built-in models cover the paper.
		sel, err := SelectAltruistic(candidates)
		if err != nil {
			return Selection{}, err
		}
		if !m.Allowed(sel.Cost) {
			return Selection{}, ErrNoFeasibleJury
		}
		return sel, nil
	}
}

// Decision is a Majority Voting outcome (yes / no / tie).
type Decision = voting.Decision

// Decision values.
const (
	No  = voting.No
	Yes = voting.Yes
	Tie = voting.Tie
)

// MajorityVote aggregates a voting: Yes when a strict majority of votes is
// true, No when a strict majority is false, Tie otherwise (possible only
// for even votings, which the paper's model excludes).
func MajorityVote(votes []bool) (Decision, error) {
	return voting.MajorityVote(votes)
}

// Outcome summarizes a simulated batch of decision tasks.
type Outcome = voting.Outcome

// Simulate runs `tasks` independent simulated decision tasks for a jury
// with the given error rates and reports how often the majority decision
// was wrong. As tasks grows, Outcome.ErrorRate converges to JER(errorRates)
// — the library's model-consistency check, also exercised by the tests.
func Simulate(errorRates []float64, tasks int, seed int64) (Outcome, error) {
	sim := voting.NewSimulator(randx.New(seed))
	return sim.Run(errorRates, tasks)
}

// CurvePoint is the exact JER of one odd jury size along the sorted-
// candidate prefix curve.
type CurvePoint = jer.CurvePoint

// JERCurve returns the exact JER of every odd-size jury formed from the
// most reliable candidates: point k is the JER of the best jury of size
// 2k+1 (Lemma 3 guarantees prefixes of the ε-sorted order are optimal per
// size). The curve exposes the size-vs-quality trade-off that
// SelectAltruistic optimizes over — useful for requesters who want to see
// how flat the optimum is before spending invitations.
func JERCurve(candidates []Juror) ([]CurvePoint, error) {
	if err := core.ValidateCandidates(candidates); err != nil {
		return nil, err
	}
	rates := make([]float64, len(candidates))
	for i, c := range candidates {
		rates[i] = c.ErrorRate
	}
	sort.Float64s(rates)
	return jer.PrefixCurve(rates)
}
