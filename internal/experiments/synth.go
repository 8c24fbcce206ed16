package experiments

import (
	"context"
	"fmt"
	"time"

	"juryselect/internal/core"
	"juryselect/internal/engine"
	"juryselect/internal/jer"
	"juryselect/internal/randx"
	"juryselect/internal/tablefmt"
)

func init() {
	register("table2", runTable2)
	register("fig3a", runFig3a)
	register("fig3b", runFig3b)
	register("fig3c", runFig3c)
	register("fig3d", runFig3d)
	register("fig3e", runFig3e)
	register("fig3f", runFig3f)
}

// runTable2 reproduces Table 2: the JER of every jury in the motivation
// example, computed exactly.
func runTable2(Config) (*Result, error) {
	juries := []struct {
		name  string
		rates []float64
	}{
		{"C", []float64{0.2}},
		{"A", []float64{0.1}},
		{"C,D,E", []float64{0.2, 0.3, 0.3}},
		{"A,B,C", []float64{0.1, 0.2, 0.2}},
		{"A,B,C,D,E", []float64{0.1, 0.2, 0.2, 0.3, 0.3}},
		{"A,B,C,D,E,F,G", []float64{0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4}},
		{"A,B,C,F,G", []float64{0.1, 0.2, 0.2, 0.4, 0.4}},
	}
	tb := tablefmt.New("Table 2: Error-rate of Example in Figure 1", "Crowd", "Jury Error Rate")
	for _, j := range juries {
		v, err := jer.Compute(j.rates, jer.Auto)
		if err != nil {
			return nil, err
		}
		tb.AddRow(j.name, v)
	}
	return &Result{
		ID:    "table2",
		Title: "Table 2 — motivation example JER values",
		Table: tb,
		Notes: []string{
			"Paper prints 0.0703 for {A..E} (exact 0.07036) and 0.0805 for {A..G};",
			"the running text gives 0.085 for {A..G} and the exact value is 0.085248,",
			"so the table cell is a typo. {A,B,C,F,G} matches at 0.104 (exact 0.10384).",
		},
	}, nil
}

// synthJurors draws n jurors with ε ~ TruncNormal(mean, sigma) on (0,1) and
// optional costs ~ TruncNormal(reqMean, reqSigma) on [0, ∞).
func synthJurors(src *randx.Source, n int, mean, sigma float64, reqMean, reqSigma float64) []core.Juror {
	rates := src.ErrorRates(n, mean, sigma)
	var reqs []float64
	if reqMean > 0 || reqSigma > 0 {
		reqs = src.Requirements(n, reqMean, reqSigma)
	}
	jurors := make([]core.Juror, n)
	for i := range jurors {
		jurors[i] = core.Juror{ID: fmt.Sprintf("j%d", i), ErrorRate: rates[i]}
		if reqs != nil {
			jurors[i].Cost = reqs[i]
		}
	}
	return jurors
}

// runFig3a reproduces Figure 3(a): the optimal jury size as the mean of the
// individual error rates sweeps 0.1..0.9, one curve per deviation.
func runFig3a(cfg Config) (*Result, error) {
	src := randx.New(cfg.Seed).Split("fig3a")
	tb := tablefmt.New("Fig 3(a): Jury Size vs Individual Error-rate",
		append([]string{"mean"}, sigmaHeaders(cfg.TraitSigmas)...)...)
	series := make([]Series, len(cfg.TraitSigmas))
	for i, sg := range cfg.TraitSigmas {
		series[i].Name = fmt.Sprintf("var(%g)", sg)
	}
	for _, mean := range cfg.TraitMeans {
		row := []interface{}{mean}
		for i, sg := range cfg.TraitSigmas {
			cands := synthJurors(src.Split(fmt.Sprintf("m%v-s%v", mean, sg)),
				cfg.TraitN, mean, sg, 0, 0)
			sel, err := core.SelectAltr(cands, core.AltrOptions{Incremental: true})
			if err != nil {
				return nil, err
			}
			series[i].Points = append(series[i].Points, Point{X: mean, Y: float64(sel.Size())})
			row = append(row, sel.Size())
		}
		tb.AddRow(row...)
	}
	return &Result{
		ID:     "fig3a",
		Title:  "Figure 3(a) — jury size vs mean individual error rate",
		Series: series,
		Table:  tb,
		Notes: []string{
			"Expected shape: large/noisy optimal sizes while mean ε < 0.5 (flat objective),",
			"collapsing toward 1 once mean ε crosses 0.5 ('the hands of the few').",
		},
	}, nil
}

func sigmaHeaders(sigmas []float64) []string {
	out := make([]string, len(sigmas))
	for i, s := range sigmas {
		out[i] = fmt.Sprintf("size var(%g)", s)
	}
	return out
}

// runFig3b reproduces Figure 3(b): AltrALG wall-clock time versus candidate
// count, with and without the Lemma 2 lower-bound check, following the
// paper's workload (ε mean 0.1).
func runFig3b(cfg Config) (*Result, error) {
	src := randx.New(cfg.Seed).Split("fig3b")
	tb := tablefmt.New("Fig 3(b): Efficiency of JSP on AltrM",
		"N", "sigma", "plain (s)", "bounded (s)")
	var series []Series
	for _, sg := range cfg.EffSigmas {
		plain := Series{Name: fmt.Sprintf("m(%g)", sg)}
		bounded := Series{Name: fmt.Sprintf("m(%g,b)", sg)}
		for _, n := range cfg.EffSizes {
			cands := synthJurors(src.Split(fmt.Sprintf("n%d-s%v", n, sg)),
				n, cfg.EffMean, sg, 0, 0)
			tPlain, err := timeAltr(cands, core.AltrOptions{Algorithm: jer.CBAAlgo})
			if err != nil {
				return nil, err
			}
			tBound, err := timeAltr(cands, core.AltrOptions{Algorithm: jer.CBAAlgo, UseLowerBound: true})
			if err != nil {
				return nil, err
			}
			plain.Points = append(plain.Points, Point{X: float64(n), Y: tPlain.Seconds()})
			bounded.Points = append(bounded.Points, Point{X: float64(n), Y: tBound.Seconds()})
			tb.AddRow(n, sg, tPlain.Seconds(), tBound.Seconds())
		}
		series = append(series, plain, bounded)
	}
	return &Result{
		ID:     "fig3b",
		Title:  "Figure 3(b) — AltrALG efficiency with/without lower-bound check",
		Series: series,
		Table:  tb,
		Notes: []string{
			"Absolute times are hardware-dependent; the paper's i7/Win7 numbers are in",
			"thousands of seconds. Compare growth and the bounded/unbounded gap only.",
			"With ε mean 0.1 the bound is rarely usable (γ ≥ 1), so the bounded variant",
			"mostly pays the O(n) checking overhead — the paper observes the same at",
			"small sizes.",
		},
	}, nil
}

func timeAltr(cands []core.Juror, opts core.AltrOptions) (time.Duration, error) {
	start := time.Now()
	_, err := core.SelectAltr(cands, opts)
	return time.Since(start), err
}

// payWorkload draws the Figure 3(c)/(d) candidate set for one ε mean.
func payWorkload(src *randx.Source, cfg Config, epsMean float64) []core.Juror {
	return synthJurors(src, cfg.BudgetN, epsMean, 0.05, cfg.ReqMean, cfg.ReqSigma)
}

// runFig3c reproduces Figure 3(c): total cost of the selected jury versus
// budget, one curve per candidate ε mean.
func runFig3c(cfg Config) (*Result, error) {
	return runBudgetSweep(cfg, "fig3c",
		"Fig 3(c): Budget vs Total Cost of Selected Jury",
		"Figure 3(c) — budget vs total cost", "total cost",
		func(sel core.Selection) float64 { return sel.Cost })
}

// runFig3d reproduces Figure 3(d): JER of the selected jury versus budget.
func runFig3d(cfg Config) (*Result, error) {
	return runBudgetSweep(cfg, "fig3d",
		"Fig 3(d): Budget vs JER",
		"Figure 3(d) — budget vs JER", "JER",
		func(sel core.Selection) float64 { return sel.JER })
}

func runBudgetSweep(cfg Config, id, tableTitle, title, metric string,
	extract func(core.Selection) float64) (*Result, error) {
	src := randx.New(cfg.Seed).Split("fig3cd")
	tb := tablefmt.New(tableTitle, "budget", "eps-mean", metric, "jury size")
	var series []Series
	// The engine memo is shared across the whole sweep: within one ε mean
	// the greedy re-evaluates the same growing sub-juries at every budget,
	// so each distinct multiset above the memo threshold is computed once.
	eng := engine.New(engine.Options{Workers: cfg.Workers})
	for _, em := range cfg.BudgetEpsMean {
		cands := payWorkload(src.Split(fmt.Sprintf("m%v", em)), cfg, em)
		s := Series{Name: fmt.Sprintf("m(%g)", em)}
		for _, b := range cfg.Budgets {
			sel, err := core.SelectPay(cands, core.PayOptions{Budget: b, Evaluate: eng.Evaluate})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: b, Y: extract(sel)})
			tb.AddRow(b, em, extract(sel), sel.Size())
		}
		series = append(series, s)
	}
	st := eng.Stats()
	notes := []string{
		"Workload per DESIGN.md §5: ε ~ N(mean, 0.05) truncated to (0,1) with mean from",
		"the legend; requirements ~ N(0.5, 0.2) truncated at 0; N = " + fmt.Sprint(cfg.BudgetN) + ".",
		fmt.Sprintf("Engine memo across the sweep: %d exact JER computations, %d hits.",
			st.Evaluations, st.CacheHits),
	}
	if id == "fig3d" {
		notes = append(notes,
			"Expected: JER falls as budget rises, and lower-ε candidate pools dominate at",
			"every budget (paper: 'a raising budget can improve jury quality').")
	}
	return &Result{ID: id, Title: title, Series: series, Table: tb, Notes: notes}, nil
}

// optWorkload draws the Figure 3(e)/(f) candidate set: the small pool for
// which exact enumeration is feasible.
func optWorkload(cfg Config) []core.Juror {
	src := randx.New(cfg.Seed).Split("fig3ef")
	return synthJurors(src, cfg.OptN, cfg.OptEpsMean, cfg.OptEpsSigma,
		cfg.OptReqMean, cfg.OptReqSigma)
}

// runFig3e reproduces Figure 3(e): total cost of PayALG (APPX) versus the
// enumerated optimum (OPT) across budgets.
func runFig3e(cfg Config) (*Result, error) {
	return runOptCompare(cfg, "fig3e",
		"Fig 3(e): APPX vs OPT on Total Cost",
		"Figure 3(e) — APPX vs OPT total cost",
		"cost", func(sel core.Selection) float64 { return sel.Cost })
}

// runFig3f reproduces Figure 3(f): JER of PayALG (APPX) versus the
// enumerated optimum (OPT) across budgets.
func runFig3f(cfg Config) (*Result, error) {
	return runOptCompare(cfg, "fig3f",
		"Fig 3(f): APPX vs OPT on JER",
		"Figure 3(f) — APPX vs OPT JER",
		"JER", func(sel core.Selection) float64 { return sel.JER })
}

func runOptCompare(cfg Config, id, tableTitle, title, metric string,
	extract func(core.Selection) float64) (*Result, error) {
	cands := optWorkload(cfg)
	tb := tablefmt.New(tableTitle, "budget", "APPX "+metric, "OPT "+metric, "APPX size", "OPT size")
	appx := Series{Name: "APPX"}
	opt := Series{Name: "OPT"}
	matches := 0
	// One engine for the whole budget sweep: PayALG's admission checks
	// revisit the same sub-juries at every budget, so the memo computes
	// each distinct multiset once; OPT enumeration shards across workers.
	eng := engine.New(engine.Options{Workers: cfg.Workers})
	for _, b := range cfg.OptBudgets {
		sa, err := core.SelectPay(cands, core.PayOptions{Budget: b, Evaluate: eng.Evaluate})
		if err != nil {
			return nil, err
		}
		so, err := core.SelectOpt(context.TODO(), cands, b, cfg.Workers)
		if err != nil {
			return nil, err
		}
		if sa.JER <= so.JER+1e-12 {
			matches++
		}
		appx.Points = append(appx.Points, Point{X: b, Y: extract(sa)})
		opt.Points = append(opt.Points, Point{X: b, Y: extract(so)})
		tb.AddRow(b, extract(sa), extract(so), sa.Size(), so.Size())
	}
	st := eng.Stats()
	notes := []string{
		fmt.Sprintf("APPX achieved the optimal JER in %d of %d budgets (paper: 4 of 11).",
			matches, len(cfg.OptBudgets)),
		"OPT is sharded exact enumeration (SelectOpt); APPX is the PayALG greedy.",
		fmt.Sprintf("Engine memo over the budget sweep: %d exact JER computations, %d cache hits.",
			st.Evaluations, st.CacheHits),
	}
	return &Result{ID: id, Title: title,
		Series: []Series{appx, opt}, Table: tb, Notes: notes}, nil
}
