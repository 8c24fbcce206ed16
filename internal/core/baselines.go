package core

import (
	"errors"
	"fmt"
	"sort"

	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

// Baseline selectors. None of these appear in the paper's algorithms; they
// exist so the benchmark harness can quantify how much of AltrALG's and
// PayALG's quality comes from each design decision (size optimization,
// ε·r ordering, improvement check). See the ablation entries in DESIGN.md.

// SelectRandom returns a uniformly random odd-size jury of the requested
// size. Under a positive budget the draw is retried until the jury is
// affordable (up to maxTries), modelling an uninformed requester.
func SelectRandom(cands []Juror, size int, budget float64, src *randx.Source) (Selection, error) {
	if err := ValidateCandidates(cands); err != nil {
		return Selection{}, err
	}
	if size <= 0 || size > len(cands) {
		return Selection{}, fmt.Errorf("core: random jury size %d out of range [1,%d]", size, len(cands))
	}
	if size%2 == 0 {
		return Selection{}, errors.New("core: random jury size must be odd")
	}
	const maxTries = 10000
	for try := 0; try < maxTries; try++ {
		perm := src.Perm(len(cands))
		jury := make([]Juror, size)
		for i := 0; i < size; i++ {
			jury[i] = cands[perm[i]]
		}
		cost := totalCost(jury)
		if budget > 0 && cost > budget {
			continue
		}
		rates := make([]float64, size)
		for i, j := range jury {
			rates[i] = j.ErrorRate
		}
		v, err := jer.Compute(rates, jer.Auto)
		if err != nil {
			return Selection{}, err
		}
		return Selection{Jurors: jury, JER: v, Cost: cost, Evaluations: 1}, nil
	}
	return Selection{}, ErrNoFeasibleJury
}

// SelectTopK returns the k most reliable candidates (smallest ε) as a jury
// without optimizing the size; k must be odd. This isolates the value of
// AltrALG's size sweep: Table 2 shows a fixed size can be strictly worse
// than a neighbouring odd size.
func SelectTopK(cands []Juror, k int) (Selection, error) {
	if err := ValidateCandidates(cands); err != nil {
		return Selection{}, err
	}
	if k <= 0 || k > len(cands) {
		return Selection{}, fmt.Errorf("core: top-k size %d out of range [1,%d]", k, len(cands))
	}
	if k%2 == 0 {
		return Selection{}, errors.New("core: top-k size must be odd")
	}
	sorted := SortedByErrorRate(cands)
	jury := append([]Juror(nil), sorted[:k]...)
	rates := make([]float64, k)
	for i, j := range jury {
		rates[i] = j.ErrorRate
	}
	v, err := jer.Compute(rates, jer.Auto)
	if err != nil {
		return Selection{}, err
	}
	return Selection{Jurors: jury, JER: v, Cost: totalCost(jury), Evaluations: 1}, nil
}

// SelectCheapestFirst greedily admits candidates in ascending cost order
// while the budget allows, trimming to the largest odd prefix, with no
// JER-improvement check at all. It is the natural "stretch the budget"
// strategy the paper's motivation example warns against (hiring F and G).
func SelectCheapestFirst(cands []Juror, budget float64) (Selection, error) {
	if err := ValidateCandidates(cands); err != nil {
		return Selection{}, err
	}
	if budget < 0 {
		return Selection{}, errors.New("core: negative budget")
	}
	sorted := make([]Juror, len(cands))
	copy(sorted, cands)
	// Ascending by cost; ties by error rate so equal-cost jurors admit the
	// more reliable one first.
	sort.SliceStable(sorted, func(i, k int) bool {
		a, b := sorted[i], sorted[k]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.ErrorRate != b.ErrorRate {
			return a.ErrorRate < b.ErrorRate
		}
		return a.ID < b.ID
	})
	var jury []Juror
	spent := 0.0
	for _, j := range sorted {
		if spent+j.Cost > budget {
			break
		}
		jury = append(jury, j)
		spent += j.Cost
	}
	if len(jury)%2 == 0 && len(jury) > 0 {
		spent -= jury[len(jury)-1].Cost
		jury = jury[:len(jury)-1]
	}
	if len(jury) == 0 {
		return Selection{}, ErrNoFeasibleJury
	}
	rates := make([]float64, len(jury))
	for i, j := range jury {
		rates[i] = j.ErrorRate
	}
	v, err := jer.Compute(rates, jer.Auto)
	if err != nil {
		return Selection{}, err
	}
	return Selection{Jurors: jury, JER: v, Cost: spent, Evaluations: 1}, nil
}
