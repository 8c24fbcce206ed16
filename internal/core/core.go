// Package core implements the Jury Selection Problem (JSP) of the paper:
// given a candidate juror set S, a crowdsourcing model (AltrM or PayM) and —
// under PayM — a budget B, select an odd-size jury J ⊆ S minimizing the
// Jury Error Rate JER(J) (Definition 9).
//
// The package contains the paper's two solvers and the ground-truth
// reference:
//
//   - AltrALG (Algorithm 3): exact solver for the altruism model, justified
//     by the prefix-optimality of Lemma 3, with the Paley–Zygmund
//     lower-bound pruning of Lemma 2.
//   - PayALG (Algorithm 4): greedy heuristic for the pay-as-you-go model,
//     where JSP is NP-hard (Lemma 4).
//   - Opt: exact exponential enumeration over allowed juries, used as the
//     ground truth ("OPT") in Figures 3(e), 3(f), 3(h) and 3(i).
//
// Baselines used by the ablation experiments (random jury, fixed-size
// top-k, cheapest-first) live in baselines.go.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"juryselect/internal/pbdist"
)

// Juror is one candidate worker on the micro-blog service.
type Juror struct {
	// ID identifies the juror (e.g. a user name). IDs are opaque to the
	// solvers; duplicates are permitted but make reports ambiguous.
	ID string
	// ErrorRate is the individual error rate ε ∈ (0,1) of Definition 4.
	ErrorRate float64
	// Cost is the payment requirement r ≥ 0 of Definition 8. Ignored by
	// the altruism model.
	Cost float64
}

// Validate checks the juror's fields against the model definitions.
func (j Juror) Validate() error {
	if math.IsNaN(j.ErrorRate) || j.ErrorRate <= 0 || j.ErrorRate >= 1 {
		return fmt.Errorf("core: juror %q: %w: ε = %g", j.ID, pbdist.ErrRateOutOfRange, j.ErrorRate)
	}
	if math.IsNaN(j.Cost) || j.Cost < 0 {
		return fmt.Errorf("core: juror %q: negative or NaN cost %g", j.ID, j.Cost)
	}
	return nil
}

// ErrNoCandidates reports selection over an empty candidate set.
var ErrNoCandidates = errors.New("core: no candidate jurors")

// ErrNoFeasibleJury reports that no allowed jury exists, e.g. every single
// juror already exceeds the PayM budget.
var ErrNoFeasibleJury = errors.New("core: no feasible jury under the budget")

// ValidateCandidates checks every candidate juror.
func ValidateCandidates(cands []Juror) error {
	if len(cands) == 0 {
		return ErrNoCandidates
	}
	for _, j := range cands {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Selection is the outcome of a jury selection run.
type Selection struct {
	// Jurors is the selected jury, in the order the solver admitted them.
	Jurors []Juror
	// JER is the exact Jury Error Rate of the selected jury.
	JER float64
	// Cost is the total payment requirement Σr of the selected jury.
	Cost float64
	// Evaluations counts exact JER computations the solver performed.
	Evaluations int
	// Pruned counts candidate juries skipped via the Lemma 2 lower bound.
	Pruned int
}

// Size returns the number of selected jurors.
func (s Selection) Size() int { return len(s.Jurors) }

// IDs returns the selected juror IDs in admission order.
func (s Selection) IDs() []string {
	ids := make([]string, len(s.Jurors))
	for i, j := range s.Jurors {
		ids[i] = j.ID
	}
	return ids
}

// Rates returns the selected jurors' error rates in admission order.
func (s Selection) Rates() []float64 {
	rates := make([]float64, len(s.Jurors))
	for i, j := range s.Jurors {
		rates[i] = j.ErrorRate
	}
	return rates
}

// Model is a crowdsourcing model deciding which juries are allowed
// (Definitions 7 and 8).
type Model interface {
	// Allowed reports whether a jury with the given total cost may be
	// formed.
	Allowed(totalCost float64) bool
	// Name returns the model name for reports.
	Name() string
}

// AltrM is the Altruism Jurors Model (Definition 7): every jury is allowed.
type AltrM struct{}

// Allowed always returns true under AltrM.
func (AltrM) Allowed(float64) bool { return true }

// Name returns "AltrM".
func (AltrM) Name() string { return "AltrM" }

// PayM is the Pay-as-you-go Model (Definition 8): a jury is allowed when its
// total payment requirement does not exceed the budget.
type PayM struct {
	// Budget is the non-negative budget B.
	Budget float64
}

// Allowed reports totalCost ≤ B.
func (m PayM) Allowed(totalCost float64) bool { return totalCost <= m.Budget }

// Name returns "PayM".
func (m PayM) Name() string { return "PayM" }

// totalCost sums the cost of a juror slice.
func totalCost(jurors []Juror) float64 {
	sum := 0.0
	for _, j := range jurors {
		sum += j.Cost
	}
	return sum
}

// SortedByErrorRate returns a copy of cands sorted ascending by ε with
// ties broken by ID — the ordering whose prefixes are size-wise optimal
// under AltrM (Lemma 3). Exposed for callers that evaluate the prefix
// juries themselves, e.g. the batch engine's parallel altruistic solver.
func SortedByErrorRate(cands []Juror) []Juror { return sortJurors(cands, nil, false) }

// RankByErrorRate returns SortedByErrorRate(cands) together with each
// candidate's position in it: sorted[rank[i]] is cands[i]. A caller that
// keeps only the sorted copy can still walk the input order through
// rank, at 4 bytes per juror. len(cands) must fit in an int32.
func RankByErrorRate(cands []Juror) (sorted []Juror, rank []int32) {
	rank = make([]int32, len(cands))
	return sortJurors(cands, rank, false), rank
}

// sortJurors is the one implementation of both candidate orders: a copy
// of cands sorted ascending by ε (Lemma 3) or, with byCostQuality, by
// the ε·r product PayALG uses (Algorithm 4, Line 1) and then by cost;
// ties break by ID. It sorts pointer-free (key, key, index) entries with
// one unstable sort, which moves 24 bytes per swap and pays no write
// barriers, and gathers the jurors in entry order, recording each one's
// position in rank when rank is non-nil. The index is the last
// tie-break, so the result is the slice a stable sort yields even when
// IDs repeat, as inline candidates may.
func sortJurors(cands []Juror, rank []int32, byCostQuality bool) []Juror {
	type entry struct {
		first, second float64
		i             int
	}
	entries := make([]entry, len(cands))
	for i, c := range cands {
		entries[i] = entry{c.ErrorRate, 0, i}
		if byCostQuality {
			entries[i] = entry{c.ErrorRate * c.Cost, c.Cost, i}
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		if c := cmp.Compare(a.second, b.second); c != 0 {
			return c
		}
		if c := strings.Compare(cands[a.i].ID, cands[b.i].ID); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]Juror, len(entries))
	for k, e := range entries {
		out[k] = cands[e.i]
		if rank != nil {
			rank[e.i] = int32(k)
		}
	}
	return out
}
