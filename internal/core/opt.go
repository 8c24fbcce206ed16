package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"juryselect/internal/jer"
	"juryselect/internal/pbdist"
)

// MaxOptCandidates bounds the candidate-set size accepted by SelectOpt.
// The enumeration visits 2^N subsets; 26 keeps worst-case runtime in the
// tens of seconds. The paper's ground-truth runs use N = 22 (Figures 3(e),
// 3(f)) and N = 20 (Figures 3(h), 3(i)).
const MaxOptCandidates = 26

// SelectOpt solves JSP under PayM exactly by depth-first enumeration of all
// subsets, maintaining the exact wrong-vote distribution incrementally
// (O(n) per branch instead of re-deriving it at every leaf). Only odd-size,
// budget-feasible juries are evaluated; branches whose cost already exceeds
// the budget are cut (costs are non-negative, so no descendant can recover).
//
// The enumeration is sharded: the include/exclude decisions for the first
// k candidates are fixed per shard (2^k shards, k a function of len(cands)
// alone), and each shard runs the depth-first enumeration over the
// remaining candidates from a distribution seeded with its fixed prefix.
// workers goroutines claim shards (workers ≤ 0 selects
// runtime.GOMAXPROCS(0)); each keeps one enumeration state and resets its
// distribution between shards, and with one worker the enumeration runs
// on the caller's goroutine. The shard set, each shard's enumeration order
// and the merge order are fixed, so the result is bit-for-bit identical
// for every workers value and across runs.
//
// Workers poll ctx between shards (a shard is at most 2^(n-8) leaves, a
// few milliseconds at the 26-candidate cap), so a serving layer's deadline
// bounds the enumeration. A nil ctx never cancels. On cancellation the
// partial result is discarded and ctx.Err() returned.
//
// This is the "OPT"/"TRUE" ground truth of the paper's effectiveness
// experiments. It is exponential in len(cands) and rejects candidate sets
// larger than MaxOptCandidates.
func SelectOpt(ctx context.Context, cands []Juror, budget float64, workers int) (Selection, error) {
	if err := ValidateCandidates(cands); err != nil {
		return Selection{}, err
	}
	if budget < 0 {
		return Selection{}, errors.New("core: negative budget")
	}
	if len(cands) > MaxOptCandidates {
		return Selection{}, fmt.Errorf("core: SelectOpt supports at most %d candidates, got %d",
			MaxOptCandidates, len(cands))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	n := len(cands)
	// Fixed shard granularity, independent of the worker count, so the
	// result (including float round-off) never depends on the hardware:
	// 256 shards give good load balance up to MaxOptCandidates while each
	// shard still amortizes its setup over 2^(n-8) leaves.
	k := n / 2
	if n >= 16 {
		k = 8
	}
	shards := 1 << uint(k)
	if workers > shards {
		workers = shards
	}

	results := make([]shardBest, shards)
	var next atomic.Int64
	work := func() {
		e := optEnum{cands: cands, budget: budget}
		for ctxErr(ctx) == nil {
			s := int(next.Add(1)) - 1
			if s >= shards {
				return
			}
			results[s] = e.runShard(k, s)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctxErr(ctx); err != nil {
		return Selection{}, err
	}

	// Merge in visit order: shard s encodes candidate i's inclusion in bit
	// (k-1-i), so ascending s reproduces the exclude-first depth-first
	// order over all subsets and the strict < keeps the first-visited
	// optimum.
	best := shardBest{bestJER: 2}
	evals := 0
	for _, r := range results {
		evals += r.evals
		if r.bestMask != 0 && r.bestJER < best.bestJER {
			best.bestJER = r.bestJER
			best.bestMask = r.bestMask
		}
	}
	if best.bestMask == 0 {
		return Selection{}, ErrNoFeasibleJury
	}
	sel := Selection{JER: best.bestJER, Evaluations: evals}
	for i := range cands {
		if best.bestMask&(1<<uint(i)) != 0 {
			sel.Jurors = append(sel.Jurors, cands[i])
		}
	}
	sel.Cost = totalCost(sel.Jurors)
	return sel, nil
}

type shardBest struct {
	bestMask uint32
	bestJER  float64
	evals    int
}

// optEnum is one worker's enumeration state, reused across its shards.
type optEnum struct {
	cands    []Juror
	budget   float64
	dist     pbdist.Dist
	mask     uint32
	bestMask uint32
	bestJER  float64
	evals    int
}

// runShard enumerates the juries whose first-k membership matches shard
// id s (candidate i included iff bit k-1-i of s is set). An infeasible
// prefix — its cost alone exceeds the budget — corresponds to a subtree
// the enumeration never enters, so the shard contributes nothing.
func (e *optEnum) runShard(k, s int) shardBest {
	e.dist.Reset()
	e.mask, e.bestMask, e.bestJER, e.evals = 0, 0, 2, 0
	cost := 0.0
	for i := 0; i < k; i++ {
		if s&(1<<uint(k-1-i)) == 0 {
			continue
		}
		cost += e.cands[i].Cost
		if cost > e.budget {
			return shardBest{bestJER: 2}
		}
		if err := e.dist.Append(e.cands[i].ErrorRate); err != nil {
			// Rates were validated up front; Append cannot fail here.
			panic(err)
		}
		e.mask |= 1 << uint(i)
	}
	e.dfs(k, cost)
	return shardBest{bestMask: e.bestMask, bestJER: e.bestJER, evals: e.evals}
}

// dfs explores include/exclude decisions for candidate i with the running
// subset cost. The wrong-vote distribution for the current subset is kept in
// e.dist via Append/Pop.
func (e *optEnum) dfs(i int, cost float64) {
	if i == len(e.cands) {
		n := e.dist.N()
		if n == 0 || n%2 == 0 {
			return
		}
		e.evals++
		v := e.dist.TailAtLeast(jer.FailThreshold(n))
		// Strict inequality keeps the first (lexicographically smallest
		// mask) optimum, making results deterministic.
		if v < e.bestJER {
			e.bestJER = v
			e.bestMask = e.mask
		}
		return
	}
	// Exclude candidate i.
	e.dfs(i+1, cost)
	// Include candidate i if the budget allows.
	c := e.cands[i].Cost
	if cost+c > e.budget {
		return
	}
	if err := e.dist.Append(e.cands[i].ErrorRate); err != nil {
		// Rates were validated up front; Append cannot fail here.
		panic(err)
	}
	e.mask |= 1 << uint(i)
	e.dfs(i+1, cost+c)
	e.mask &^= 1 << uint(i)
	if err := e.dist.Pop(); err != nil {
		panic(err)
	}
}
