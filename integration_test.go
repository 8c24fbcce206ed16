// Integration tests across module boundaries: the full §4 pipeline feeding
// the selection solvers, the learning loop closing back into selection,
// and failure injection at each boundary. These complement the per-package
// unit tests; see bench_test.go for the per-figure harness.
package juryselect_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"juryselect/internal/dataio"
	"juryselect/internal/randx"
	"juryselect/jury"
	"juryselect/microblog"
)

// TestPipelineToSelectionToSimulation drives tweets → candidates →
// selection → voting simulation and checks the empirical failure rate of
// the selected jury against its analytic JER.
func TestPipelineToSelectionToSimulation(t *testing.T) {
	tweets, profiles := microblog.SyntheticCorpus(800, 5000, 31)
	res, err := microblog.Candidates(tweets, profiles, microblog.Options{
		Ranker: microblog.PageRank,
		TopK:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 40 {
		t.Fatalf("pipeline returned %d candidates", len(res.Candidates))
	}
	sel, err := jury.Select(res.Candidates, jury.Altruism)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size()%2 != 1 {
		t.Fatalf("even jury size %d", sel.Size())
	}
	out, err := jury.Simulate(sel.Rates(), 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(sel.JER*(1-sel.JER)/float64(out.Tasks)) + 1e-6
	if math.Abs(out.ErrorRate()-sel.JER) > 5*sigma+1e-3 {
		t.Errorf("simulated %.6f vs analytic %.6f", out.ErrorRate(), sel.JER)
	}
}

// TestPipelineToBudgetedSelection checks the PayM path end to end,
// including the account-age-derived requirements.
func TestPipelineToBudgetedSelection(t *testing.T) {
	tweets, profiles := microblog.SyntheticCorpus(600, 4000, 33)
	res, err := microblog.Candidates(tweets, profiles, microblog.Options{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, c := range res.Candidates {
		total += c.Cost
	}
	budget := 0.25 * total
	sel, err := jury.Select(res.Candidates, jury.PayAsYouGo(budget))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost > budget+1e-12 {
		t.Fatalf("cost %g over budget %g", sel.Cost, budget)
	}
	// The exact optimum must be at least as good.
	opt, err := jury.SelectExact(res.Candidates, budget)
	if err != nil {
		t.Fatal(err)
	}
	if opt.JER > sel.JER+1e-12 {
		t.Fatalf("OPT %.3g worse than greedy %.3g", opt.JER, sel.JER)
	}
}

// TestLearningLoopClosesIntoSelection: history generated by crowd with
// known rates → EM estimates → selection over estimates must be close in
// true JER to the oracle selection.
func TestLearningLoopClosesIntoSelection(t *testing.T) {
	src := randx.New(44)
	trueRates := make([]float64, 21)
	for i := range trueRates {
		trueRates[i] = 0.05 + 0.45*src.Float64()
	}
	h, err := jury.NewHistory(len(trueRates))
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 2500; task++ {
		truth := task%2 == 0
		row := make([]jury.Vote, len(trueRates))
		for i, e := range trueRates {
			wrong := src.Bernoulli(e)
			if truth != wrong {
				row[i] = jury.VoteYes
			} else {
				row[i] = jury.VoteNo
			}
		}
		if err := h.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	learned, err := jury.Learn(h)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rates []float64) []jury.Juror {
		out := make([]jury.Juror, len(rates))
		for i, e := range rates {
			out[i] = jury.Juror{ID: string(rune('A' + i)), ErrorRate: e}
		}
		return out
	}
	selLearned, err := jury.SelectAltruistic(mk(learned.ErrorRates))
	if err != nil {
		t.Fatal(err)
	}
	selOracle, err := jury.SelectAltruistic(mk(trueRates))
	if err != nil {
		t.Fatal(err)
	}
	// Score the learned jury under the TRUE rates.
	trueJER := func(sel jury.Selection) float64 {
		var rates []float64
		for _, j := range sel.Jurors {
			rates = append(rates, trueRates[j.ID[0]-'A'])
		}
		v, err := jury.JER(rates)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	lj, oj := trueJER(selLearned), trueJER(selOracle)
	if lj > 3*oj+0.01 {
		t.Errorf("learned-rate jury true JER %.5f too far above oracle %.5f", lj, oj)
	}
}

// TestSelectionSerializationRoundTrip: candidates → CSV → candidates →
// selection → JSON report.
func TestSelectionSerializationRoundTrip(t *testing.T) {
	tweets, profiles := microblog.SyntheticCorpus(300, 2000, 35)
	res, err := microblog.Candidates(tweets, profiles, microblog.Options{TopK: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Raw pipeline output includes the bottom scorer at ε ≈ 1 (the §4.1.3
	// normalization maps the lowest score to β⁰). File ingest is stricter
	// than the in-memory model — it rejects worse-than-chance jurors — so
	// the unfiltered set must fail the read...
	if _, err := dataio.ReadCSV(jurorCSV(res.Candidates)); !errors.Is(err, dataio.ErrRateNotBetterThanChance) {
		t.Fatalf("unfiltered pipeline output: err = %v, want ErrRateNotBetterThanChance", err)
	}
	// ...and the candidate pool a requester stores is the filtered crowd.
	var stored []jury.Juror
	for _, c := range res.Candidates {
		if c.ErrorRate < 0.5 {
			stored = append(stored, c)
		}
	}
	if len(stored) == 0 {
		t.Fatal("no better-than-chance candidates in pipeline output")
	}
	back, err := dataio.ReadCSV(jurorCSV(stored))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(stored) {
		t.Fatalf("round trip lost jurors: %d vs %d", len(back), len(stored))
	}
	selA, err := jury.SelectAltruistic(stored)
	if err != nil {
		t.Fatal(err)
	}
	selB, err := jury.SelectAltruistic(back)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(selA.JER-selB.JER) > 1e-12 || selA.Size() != selB.Size() {
		t.Fatalf("selection changed across serialization: %v/%g vs %v/%g",
			selA.IDs(), selA.JER, selB.IDs(), selB.JER)
	}
	var jsonBuf bytes.Buffer
	if err := dataio.WriteSelection(&jsonBuf, "altr", 0, selB); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"jury_error_rate"`) {
		t.Errorf("report missing JER field: %s", jsonBuf.String())
	}
}

// jurorCSV renders jurors in the id,error_rate,cost layout dataio.ReadCSV
// reads; %v prints each float in its shortest round-trip form.
func jurorCSV(jurors []jury.Juror) *bytes.Buffer {
	var buf bytes.Buffer
	buf.WriteString("id,error_rate,cost\n")
	for _, j := range jurors {
		fmt.Fprintf(&buf, "%s,%v,%v\n", j.ID, j.ErrorRate, j.Cost)
	}
	return &buf
}

// TestFailureInjectionAcrossBoundaries: every module boundary must reject
// malformed input with an error, never a panic.
func TestFailureInjectionAcrossBoundaries(t *testing.T) {
	// Corrupt tweets: parser must survive and pipeline must report no
	// retweets rather than panic.
	bad := []microblog.Tweet{
		{Author: "", Content: ""},
		{Author: "x", Content: "RT @"},
		{Author: "y", Content: strings.Repeat("RT @ ", 1000)}, // '@ ' never matches \w
	}
	if _, err := microblog.Candidates(bad, nil, microblog.Options{}); err == nil {
		t.Error("expected error for corpus without valid retweets")
	}
	// Self-retweets only: still no usable edges.
	selfOnly := []microblog.Tweet{{Author: "z", Content: "RT @z: me"}}
	if _, err := microblog.Candidates(selfOnly, nil, microblog.Options{}); err == nil {
		t.Error("expected error for self-retweet-only corpus")
	}
	// NaN and out-of-range attributes at the selection boundary.
	for _, cand := range [][]jury.Juror{
		{{ID: "n", ErrorRate: math.NaN()}},
		{{ID: "i", ErrorRate: math.Inf(1)}},
		{{ID: "z", ErrorRate: 0}},
		{{ID: "o", ErrorRate: 1}},
		{{ID: "c", ErrorRate: 0.5, Cost: math.NaN()}},
	} {
		if _, err := jury.SelectAltruistic(cand); err == nil {
			t.Errorf("candidates %+v accepted", cand)
		}
	}
	// Negative budgets.
	good := []jury.Juror{{ID: "g", ErrorRate: 0.5}}
	if _, err := jury.SelectBudgeted(good, -1); err == nil {
		t.Error("negative budget accepted by greedy")
	}
	if _, err := jury.SelectExact(good, -1); err == nil {
		t.Error("negative budget accepted by exact")
	}
}
