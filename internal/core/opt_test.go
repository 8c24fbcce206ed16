package core

import (
	"errors"
	"math"
	"testing"

	"juryselect/internal/jer"
	"juryselect/internal/pbdist"
	"juryselect/internal/randx"
)

// bruteForceOpt is an independent reference implementation of SelectOpt:
// plain bitmask enumeration recomputing JER from scratch per subset.
func bruteForceOpt(t *testing.T, cands []Juror, budget float64) (bestJER float64, bestMask int, found bool) {
	t.Helper()
	bestJER = 2
	for mask := 1; mask < 1<<uint(len(cands)); mask++ {
		var rates []float64
		cost := 0.0
		for i := range cands {
			if mask&(1<<uint(i)) != 0 {
				rates = append(rates, cands[i].ErrorRate)
				cost += cands[i].Cost
			}
		}
		if len(rates)%2 == 0 || cost > budget {
			continue
		}
		v, err := jer.Compute(rates, jer.DPAlgo)
		if err != nil {
			t.Fatal(err)
		}
		if v < bestJER {
			bestJER, bestMask, found = v, mask, true
		}
	}
	return bestJER, bestMask, found
}

func TestSelectOptMatchesBruteForce(t *testing.T) {
	src := randx.New(71)
	for trial := 0; trial < 12; trial++ {
		n := 3 + src.Intn(8)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ID:        string(rune('a' + i)),
				ErrorRate: src.TruncNormal(0.4, 0.25, 0, 1),
				Cost:      src.TruncNormal(0.3, 0.2, 0, 1),
			}
		}
		budget := src.Float64() * 1.5
		want, _, feasible := bruteForceOpt(t, cands, budget)
		got, err := SelectOpt(cands, budget)
		if !feasible {
			if !errors.Is(err, ErrNoFeasibleJury) {
				t.Fatalf("trial %d: want ErrNoFeasibleJury, got %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got.JER, want, 1e-9) {
			t.Fatalf("trial %d: SelectOpt %.12f vs brute force %.12f", trial, got.JER, want)
		}
		if got.Cost > budget+1e-12 {
			t.Fatalf("trial %d: OPT cost %g exceeds budget %g", trial, got.Cost, budget)
		}
		if got.Size()%2 != 1 {
			t.Fatalf("trial %d: even OPT size %d", trial, got.Size())
		}
	}
}

func TestSelectOptNeverWorseThanPayALG(t *testing.T) {
	// OPT is exact, so JER(OPT) ≤ JER(PayALG) always; this is the defining
	// relation behind Figure 3(f).
	src := randx.New(72)
	for trial := 0; trial < 15; trial++ {
		n := 5 + src.Intn(10)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ErrorRate: src.TruncNormal(0.2, 0.1, 0, 1),
				Cost:      src.TruncNormal(0.05, 0.2, 0, 1),
			}
		}
		budget := 0.3 + src.Float64()
		opt, err1 := SelectOpt(cands, budget)
		pay, err2 := SelectPay(cands, PayOptions{Budget: budget})
		if errors.Is(err1, ErrNoFeasibleJury) && errors.Is(err2, ErrNoFeasibleJury) {
			continue
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: opt err %v, pay err %v", trial, err1, err2)
		}
		if opt.JER > pay.JER+1e-12 {
			t.Fatalf("trial %d: OPT %.12f worse than PayALG %.12f", trial, opt.JER, pay.JER)
		}
	}
}

func TestSelectOptRejectsLargeSets(t *testing.T) {
	cands := make([]Juror, MaxOptCandidates+1)
	for i := range cands {
		cands[i] = Juror{ErrorRate: 0.5}
	}
	if _, err := SelectOpt(cands, 1); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestSelectOptValidation(t *testing.T) {
	if _, err := SelectOpt(nil, 1); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
	if _, err := SelectOpt([]Juror{{ErrorRate: 0.5}}, -1); err == nil {
		t.Error("expected error for negative budget")
	}
	if _, err := SelectOpt([]Juror{{ErrorRate: 1.2}}, 1); !errors.Is(err, pbdist.ErrRateOutOfRange) {
		t.Errorf("err = %v, want ErrRateOutOfRange", err)
	}
}

func TestSelectOptInfeasible(t *testing.T) {
	cands := []Juror{{ErrorRate: 0.5, Cost: 5}, {ErrorRate: 0.4, Cost: 7}}
	if _, err := SelectOpt(cands, 1); !errors.Is(err, ErrNoFeasibleJury) {
		t.Fatalf("err = %v, want ErrNoFeasibleJury", err)
	}
}

func TestSelectOptDeterministic(t *testing.T) {
	cands := []Juror{
		{ID: "a", ErrorRate: 0.3, Cost: 0.1},
		{ID: "b", ErrorRate: 0.3, Cost: 0.1},
		{ID: "c", ErrorRate: 0.3, Cost: 0.1},
	}
	first, err := SelectOpt(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := SelectOpt(cands, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Jurors) != len(first.Jurors) {
			t.Fatal("non-deterministic result size")
		}
		for k := range again.Jurors {
			if again.Jurors[k].ID != first.Jurors[k].ID {
				t.Fatal("non-deterministic juror order")
			}
		}
	}
}

func TestSelectOptZeroBudgetFreeJurors(t *testing.T) {
	cands := []Juror{
		{ID: "f1", ErrorRate: 0.2, Cost: 0},
		{ID: "f2", ErrorRate: 0.3, Cost: 0},
		{ID: "f3", ErrorRate: 0.3, Cost: 0},
	}
	sel, err := SelectOpt(cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	// {f1,f2,f3} has JER 0.174 < 0.2 of f1 alone.
	if sel.Size() != 3 || math.Abs(sel.JER-0.174) > 1e-9 {
		t.Fatalf("size %d JER %g, want 3 / 0.174", sel.Size(), sel.JER)
	}
}
