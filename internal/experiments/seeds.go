package experiments

import (
	"context"
	"fmt"

	"juryselect/internal/core"
	"juryselect/internal/engine"
	"juryselect/internal/randx"
	"juryselect/internal/tablefmt"
)

func init() {
	register("ablation-seeds", runAblationSeeds)
}

// runAblationSeeds re-runs the Figure 3(e)/(f) effectiveness comparison
// across ten workload seeds and reports how often PayALG (APPX) attains
// the enumerated optimum at each seed. The paper reports "4 times out of
// 11" for its single draw; this driver shows the spread of that statistic
// across draws, so EXPERIMENTS.md can judge whether our single-seed count
// is within the expected variation.
func runAblationSeeds(cfg Config) (*Result, error) {
	tb := tablefmt.New("Ablation: APPX-hits-OPT count across workload seeds",
		"seed", "eps-sigma", "hits", "budgets", "mean JER gap")
	const seeds = 10
	totalHits := 0
	var minHits, maxHits = 1 << 30, -1
	// The paper ran the workload at two ε deviations (0.05 and 0.1); sweep
	// both so the hit-count spread reflects its full setup.
	sigmas := []float64{cfg.OptEpsSigma, 2 * cfg.OptEpsSigma}
	for _, sigma := range sigmas {
		for s := int64(1); s <= seeds; s++ {
			src := randx.New(cfg.Seed + 1000*s).Split(fmt.Sprintf("fig3ef-%g", sigma))
			cands := synthJurors(src, cfg.OptN, cfg.OptEpsMean, sigma,
				cfg.OptReqMean, cfg.OptReqSigma)
			hits := 0
			gap := 0.0
			eng := engine.New(engine.Options{Workers: cfg.Workers})
			for _, b := range cfg.OptBudgets {
				appx, err := core.SelectPay(cands, core.PayOptions{Budget: b, Evaluate: eng.Evaluate})
				if err != nil {
					return nil, err
				}
				opt, err := core.SelectOpt(context.TODO(), cands, b, cfg.Workers)
				if err != nil {
					return nil, err
				}
				if appx.JER <= opt.JER+1e-12 {
					hits++
				}
				gap += appx.JER - opt.JER
			}
			totalHits += hits
			if hits < minHits {
				minHits = hits
			}
			if hits > maxHits {
				maxHits = hits
			}
			tb.AddRow(fmt.Sprint(cfg.Seed+1000*s), sigma, hits, len(cfg.OptBudgets),
				gap/float64(len(cfg.OptBudgets)))
		}
	}
	runs := seeds * len(sigmas)
	return &Result{
		ID:    "ablation-seeds",
		Title: "Ablation — seed sensitivity of the Figure 3(e)/(f) APPX-vs-OPT hit count",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("Hits ranged %d–%d of %d budgets across %d runs (mean %.1f).",
				minHits, maxHits, len(cfg.OptBudgets), runs, float64(totalHits)/float64(runs)),
			"The statistic is highly draw-dependent; compare against the paper's single",
			"reported draw (4 of 11) with that spread in mind — see EXPERIMENTS.md.",
		},
	}, nil
}
