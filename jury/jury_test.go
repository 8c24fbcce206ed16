package jury_test

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"juryselect/internal/randx"
	"juryselect/jury"
)

func figure1() []jury.Juror {
	return []jury.Juror{
		{ID: "A", ErrorRate: 0.1, Cost: 0.15},
		{ID: "B", ErrorRate: 0.2, Cost: 0.2},
		{ID: "C", ErrorRate: 0.2, Cost: 0.25},
		{ID: "D", ErrorRate: 0.3, Cost: 0.4},
		{ID: "E", ErrorRate: 0.3, Cost: 0.65},
		{ID: "F", ErrorRate: 0.4, Cost: 0.05},
		{ID: "G", ErrorRate: 0.4, Cost: 0.05},
	}
}

func TestJERMotivationValues(t *testing.T) {
	cases := []struct {
		rates []float64
		want  float64
	}{
		{[]float64{0.2, 0.3, 0.3}, 0.174},
		{[]float64{0.1, 0.2, 0.2}, 0.072},
		{[]float64{0.1, 0.2, 0.2, 0.3, 0.3}, 0.07036},
	}
	for _, tc := range cases {
		got, err := jury.JER(tc.rates)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("JER(%v) = %.6f, want %.6f", tc.rates, got, tc.want)
		}
	}
}

func TestJERErrors(t *testing.T) {
	if _, err := jury.JER(nil); !errors.Is(err, jury.ErrEmptyJury) {
		t.Errorf("err = %v, want ErrEmptyJury", err)
	}
	if _, err := jury.JER([]float64{1.5}); err == nil {
		t.Error("expected error for invalid rate")
	}
}

func TestJERDistribution(t *testing.T) {
	pmf, err := jury.JERDistribution([]float64{0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.8 * 0.7, 0.2*0.7 + 0.8*0.3, 0.2 * 0.3}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Fatalf("pmf = %v, want %v", pmf, want)
		}
	}
	if _, err := jury.JERDistribution([]float64{2}); err == nil {
		t.Error("expected error for invalid rate")
	}
}

func TestJERLowerBound(t *testing.T) {
	rates := []float64{0.9, 0.9, 0.9}
	bound, usable := jury.JERLowerBound(rates)
	if !usable {
		t.Fatal("bound should be usable for unreliable jury")
	}
	exact, err := jury.JER(rates)
	if err != nil {
		t.Fatal(err)
	}
	if bound > exact {
		t.Errorf("bound %g exceeds exact %g", bound, exact)
	}
}

func TestSelectAltruisticQuickstart(t *testing.T) {
	sel, err := jury.SelectAltruistic(figure1())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 5 || math.Abs(sel.JER-0.07036) > 1e-9 {
		t.Fatalf("selection = size %d JER %.6f, want 5 / 0.07036", sel.Size(), sel.JER)
	}
}

func TestSelectBudgeted(t *testing.T) {
	sel, err := jury.SelectBudgeted(figure1(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost > 1.0+1e-12 {
		t.Fatalf("cost %g over budget", sel.Cost)
	}
	if _, err := jury.SelectBudgeted(figure1(), -1); err == nil {
		t.Error("expected error for negative budget")
	}
}

func TestSelectExactDominatesGreedy(t *testing.T) {
	cands := figure1()
	exact, err := jury.SelectExact(cands, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := jury.SelectBudgeted(cands, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.JER > greedy.JER+1e-12 {
		t.Errorf("exact %.6f worse than greedy %.6f", exact.JER, greedy.JER)
	}
}

// TestSelectExactJERAccuracy: the JER SelectExact reports is the exact JER
// of the jury it returns, within 1e-9 relative. The enumeration reaches a
// leaf through an Append/Pop history whose deconvolution round-off
// accumulates; restarting every shard from a fresh distribution keeps
// these cases within 3.3e-10 (the n = 22, budget 8 one is the worst).
func TestSelectExactJERAccuracy(t *testing.T) {
	for n := 4; n <= 22; n++ {
		src := randx.New(int64(300 + n))
		rates := src.ErrorRates(n, 0.3, 0.15)
		costs := src.Requirements(n, 0.5, 0.2)
		cands := make([]jury.Juror, n)
		for i := range cands {
			cands[i] = jury.Juror{ID: strconv.Itoa(i), ErrorRate: rates[i], Cost: costs[i]}
		}
		for _, budget := range []float64{0.5, 1, 2, 4, 8} {
			sel, err := jury.SelectExact(cands, budget)
			if errors.Is(err, jury.ErrNoFeasibleJury) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := jury.JER(sel.Rates())
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(sel.JER-want) / want; rel > 1e-9 {
				t.Errorf("n=%d budget %g: reported JER %.17g, exact %.17g (relative error %.2g)",
					n, budget, sel.JER, want, rel)
			}
		}
	}
}

func TestSelectDispatch(t *testing.T) {
	altr, err := jury.Select(figure1(), jury.Altruism)
	if err != nil {
		t.Fatal(err)
	}
	if altr.Size() != 5 {
		t.Errorf("Altruism dispatch size %d, want 5", altr.Size())
	}
	pay, err := jury.Select(figure1(), jury.PayAsYouGo(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if pay.Cost > 1.0+1e-12 {
		t.Errorf("PayAsYouGo dispatch cost %g over budget", pay.Cost)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := jury.Select(nil, jury.Altruism); !errors.Is(err, jury.ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
	expensive := []jury.Juror{{ID: "x", ErrorRate: 0.5, Cost: 100}}
	if _, err := jury.Select(expensive, jury.PayAsYouGo(1)); !errors.Is(err, jury.ErrNoFeasibleJury) {
		t.Errorf("err = %v, want ErrNoFeasibleJury", err)
	}
}

func TestMajorityVote(t *testing.T) {
	d, err := jury.MajorityVote([]bool{true, true, false})
	if err != nil || d != jury.Yes {
		t.Fatalf("got %v, %v", d, err)
	}
	d, err = jury.MajorityVote([]bool{true, false})
	if err != nil || d != jury.Tie {
		t.Fatalf("got %v, %v", d, err)
	}
}

func TestSimulateConvergesToJER(t *testing.T) {
	rates := []float64{0.2, 0.3, 0.3}
	want, err := jury.JER(rates)
	if err != nil {
		t.Fatal(err)
	}
	out, err := jury.Simulate(rates, 200000, 42)
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(want * (1 - want) / float64(out.Tasks))
	if math.Abs(out.ErrorRate()-want) > 4*sigma+1e-4 {
		t.Errorf("simulated %g vs analytic %g", out.ErrorRate(), want)
	}
}

func TestMaxExactCandidatesEnforced(t *testing.T) {
	cands := make([]jury.Juror, jury.MaxExactCandidates+1)
	for i := range cands {
		cands[i] = jury.Juror{ErrorRate: 0.5}
	}
	if _, err := jury.SelectExact(cands, 1); err == nil {
		t.Fatal("expected size-limit error")
	}
}
