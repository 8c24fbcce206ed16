package experiments

import (
	"context"
	"errors"
	"fmt"

	"juryselect/internal/core"
	"juryselect/internal/randx"
	"juryselect/internal/tablefmt"
)

func init() {
	register("ablation-pair", runAblationPair)
}

// runAblationPair quantifies the pair-slot policies of PayALG against the
// exact optimum on random small markets: the literal blocking policy of
// Algorithm 4 versus the sliding extension (DESIGN.md). For each market we
// record which policy reaches the optimum and the mean JER regret of each.
func runAblationPair(cfg Config) (*Result, error) {
	src := randx.New(cfg.Seed).Split("ablation-pair")
	const markets = 60
	n := cfg.OptN
	if n > core.MaxOptCandidates {
		n = core.MaxOptCandidates
	}
	var (
		blockOpt, slideOpt, bothOpt int
		blockRegret, slideRegret    float64
		blockWins, slideWins        int
		counted                     int
	)
	for trial := 0; trial < markets; trial++ {
		tsrc := src.Split(fmt.Sprint(trial))
		cands := make([]core.Juror, n)
		for i := range cands {
			cands[i] = core.Juror{
				ID:        fmt.Sprintf("m%d-j%d", trial, i),
				ErrorRate: tsrc.TruncNormal(0.3, 0.15, 0, 1),
				Cost:      tsrc.TruncNormal(0.2, 0.25, 0, 2),
			}
		}
		budget := 0.3 + tsrc.Float64()*1.2
		opt, err := core.SelectOpt(context.TODO(), cands, budget, cfg.Workers)
		if errors.Is(err, core.ErrNoFeasibleJury) {
			continue
		}
		if err != nil {
			return nil, err
		}
		block, err := core.SelectPay(cands, core.PayOptions{Budget: budget})
		if err != nil {
			return nil, err
		}
		slide, err := core.SelectPay(cands, core.PayOptions{Budget: budget, Pairing: core.PairSliding})
		if err != nil {
			return nil, err
		}
		counted++
		const eps = 1e-12
		bOpt := block.JER <= opt.JER+eps
		sOpt := slide.JER <= opt.JER+eps
		if bOpt {
			blockOpt++
		}
		if sOpt {
			slideOpt++
		}
		if bOpt && sOpt {
			bothOpt++
		}
		blockRegret += block.JER - opt.JER
		slideRegret += slide.JER - opt.JER
		switch {
		case slide.JER < block.JER-eps:
			slideWins++
		case block.JER < slide.JER-eps:
			blockWins++
		}
	}
	if counted == 0 {
		return nil, errors.New("ablation-pair: no feasible markets generated")
	}
	tb := tablefmt.New("Ablation: PayALG pair policies vs OPT",
		"policy", "hit OPT", "mean JER regret", "head-to-head wins")
	tb.AddRow("blocking (paper)", fmt.Sprintf("%d/%d", blockOpt, counted),
		blockRegret/float64(counted), blockWins)
	tb.AddRow("sliding (ext)", fmt.Sprintf("%d/%d", slideOpt, counted),
		slideRegret/float64(counted), slideWins)
	return &Result{
		ID:    "ablation-pair",
		Title: "Ablation — PayALG pair-slot policy (blocking vs sliding) vs exact optimum",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("%d random markets of %d candidates; both policies hit OPT on %d.",
				counted, n, bothOpt),
			"Neither policy dominates (greedy path dependence); sliding escapes blocked",
			"pair slots while blocking holds better-ranked candidates longer.",
		},
	}, nil
}
