package experiments

import (
	"math"
	"strings"
	"testing"

	"juryselect/internal/core"
)

func TestListContainsAllExperiments(t *testing.T) {
	want := []string{
		"table2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
		"fig3g", "fig3h", "fig3i",
		"ablation-jer", "ablation-inc", "ablation-mc", "ablation-baselines", "ablation-pair", "ablation-seeds", "ablation-wmv",
		"ablation-engine",
	}
	have := map[string]bool{}
	for _, id := range List() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// renderTable returns the text jurybench prints for res's table.
func renderTable(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := res.Table.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable2Exact(t *testing.T) {
	res, err := Run("table2", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := renderTable(t, res)
	for _, want := range []string{"0.1740", "0.0720", "0.0704", "0.0852", "0.1038"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %s:\n%s", want, out)
		}
	}
}

func TestFig3aShape(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(cfg.TraitSigmas) {
		t.Fatalf("series count %d, want %d", len(res.Series), len(cfg.TraitSigmas))
	}
	// Qualitative check from the paper: for means well below 0.5 the
	// optimal jury is large; for means well above 0.5 it collapses.
	for _, s := range res.Series {
		var low, high float64
		for _, p := range s.Points {
			if p.X <= 0.2 {
				low = p.Y
			}
			if p.X >= 0.8 {
				high = p.Y
			}
		}
		if low <= high {
			t.Errorf("series %s: size at mean 0.2 (%g) not above size at mean 0.8 (%g)",
				s.Name, low, high)
		}
		if high > 9 {
			t.Errorf("series %s: error-prone regime should use tiny juries, got %g", s.Name, high)
		}
	}
}

func TestFig3bProducesTimings(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries := 2 * len(cfg.EffSigmas)
	if len(res.Series) != wantSeries {
		t.Fatalf("series count %d, want %d", len(res.Series), wantSeries)
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.EffSizes) {
			t.Fatalf("series %s: %d points, want %d", s.Name, len(s.Points), len(cfg.EffSizes))
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("negative timing %g", p.Y)
			}
		}
	}
}

func TestFig3cCostWithinBudget(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y > p.X+1e-9 {
				t.Errorf("series %s: cost %g exceeds budget %g", s.Name, p.Y, p.X)
			}
		}
	}
}

func TestFig3dJERDecreasesWithBudget(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3d", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// JER at the largest budget must not exceed JER at the smallest:
	// more budget can only widen PayALG's feasible choices given the same
	// ε·r ordering. (Not strictly monotone point-to-point for a greedy,
	// but the endpoints ordering is stable in practice.)
	for _, s := range res.Series {
		first := s.Points[0].Y
		last := s.Points[len(s.Points)-1].Y
		if last > first+1e-9 {
			t.Errorf("series %s: JER grew from %g to %g as budget rose", s.Name, first, last)
		}
	}
}

func TestFig3eAndFRelations(t *testing.T) {
	cfg := QuickConfig()
	resF, err := Run("fig3f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var appx, opt *Series
	for i := range resF.Series {
		switch resF.Series[i].Name {
		case "APPX":
			appx = &resF.Series[i]
		case "OPT":
			opt = &resF.Series[i]
		}
	}
	if appx == nil || opt == nil {
		t.Fatal("missing APPX/OPT series")
	}
	for i := range appx.Points {
		if opt.Points[i].Y > appx.Points[i].Y+1e-9 {
			t.Errorf("budget %g: OPT JER %g exceeds APPX JER %g",
				appx.Points[i].X, opt.Points[i].Y, appx.Points[i].Y)
		}
	}
	resE, err := Run("fig3e", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range resE.Series {
		for _, p := range s.Points {
			if p.Y > p.X+1e-9 {
				t.Errorf("series %s: cost %g exceeds budget %g", s.Name, p.Y, p.X)
			}
		}
	}
}

func TestFig3gSeries(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3g", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series count %d, want 4 (HT, HT-B, PR, PR-B)", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.TwitterTopNs) {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Points), len(cfg.TwitterTopNs))
		}
	}
}

func TestFig3hMetricsInRange(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3h", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Errorf("series %s: metric %g outside [0,1]", s.Name, p.Y)
			}
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	cases := []struct {
		pred, truth []string
		p, r        float64
	}{
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 1, 1},
		{[]string{"a", "b"}, []string{"a", "b", "c", "d"}, 1, 0.5},
		{[]string{"a", "x", "y", "z"}, []string{"a", "b"}, 0.25, 0.5},
		{[]string{"x"}, []string{"a"}, 0, 0},
		{nil, nil, 1, 1},
		{nil, []string{"a"}, 0, 0},
		{[]string{"a"}, nil, 0, 0},
		{[]string{"a", "a", "b"}, []string{"a"}, 0.5, 1}, // duplicates collapse
	}
	for _, tc := range cases {
		p, r := precisionRecall(tc.pred, tc.truth)
		if math.Abs(p-tc.p) > 1e-12 || math.Abs(r-tc.r) > 1e-12 {
			t.Errorf("precisionRecall(%v, %v) = (%g, %g), want (%g, %g)",
				tc.pred, tc.truth, p, r, tc.p, tc.r)
		}
	}
}

func TestFig3iPaySizeNeverBelowOne(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig3i", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y < 1 {
				t.Errorf("series %s: jury size %g < 1", s.Name, p.Y)
			}
			if p.Y != float64(int(p.Y)) || int(p.Y)%2 != 1 {
				t.Errorf("series %s: jury size %g not an odd integer", s.Name, p.Y)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := QuickConfig()
	for _, id := range []string{"ablation-jer", "ablation-inc", "ablation-mc", "ablation-baselines", "ablation-pair", "ablation-seeds", "ablation-wmv", "ablation-engine"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Table == nil || renderTable(t, res) == "" {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestBuildTwitterDataPools(t *testing.T) {
	data, err := BuildTwitterData(1000, 5000, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if data.PoolSize() != 300 {
		t.Fatalf("pool size %d, want 300", data.PoolSize())
	}
	hits, err := data.HITS(300)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := data.PageRank(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 300 || len(pr) != 300 {
		t.Fatalf("pool sizes: HITS %d PR %d, want 300", len(hits), len(pr))
	}
	// Pools must be score-descending ⇒ ε ascending.
	for i := 1; i < len(hits); i++ {
		if hits[i].ErrorRate < hits[i-1].ErrorRate {
			t.Fatal("HITS pool not ε-ascending")
		}
	}
	// Re-normalizing within a smaller subset must keep a zero-cost juror
	// present, which keeps PayM feasible at any budget (used by fig3h).
	sub, err := data.HITS(20)
	if err != nil {
		t.Fatal(err)
	}
	minCost := sub[0].Cost
	for _, j := range sub {
		if j.Cost < minCost {
			minCost = j.Cost
		}
	}
	if minCost != 0 {
		t.Errorf("subset min cost %g, want 0 (newest account is free)", minCost)
	}
	for _, pool := range [][]core.Juror{hits, pr} {
		for _, j := range pool {
			if j.ErrorRate <= 0 || j.ErrorRate >= 1 {
				t.Fatalf("juror %s: ε %g out of range", j.ID, j.ErrorRate)
			}
			if j.Cost < 0 || j.Cost > 1 {
				t.Fatalf("juror %s: cost %g out of range", j.ID, j.Cost)
			}
		}
	}
	if data.GraphStats.Nodes == 0 || data.GraphStats.Edges == 0 {
		t.Fatal("empty retweet graph")
	}
	// Power-law check: p99 in-degree far above median.
	if data.GraphStats.InDegreeP99 <= data.GraphStats.InDegreeP50 {
		t.Errorf("in-degree distribution not skewed: %+v", data.GraphStats)
	}
}

func TestConfigWithDefaultsFillsEverything(t *testing.T) {
	got := (Config{}).withDefaults()
	want := DefaultConfig()
	if got.TraitN != want.TraitN || len(got.TraitMeans) != len(want.TraitMeans) {
		t.Errorf("withDefaults incomplete: %+v", got)
	}
	if got.MonteCarloTrials != want.MonteCarloTrials {
		t.Errorf("MonteCarloTrials not defaulted")
	}
}

func TestSweepHelper(t *testing.T) {
	got := sweep(0.1, 0.5, 0.1)
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
}
