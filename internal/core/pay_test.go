package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

func TestSelectPayMotivationExample(t *testing.T) {
	// Paper Section 1: with budget $1 the jury {A,B,C,D,E} (cost of D and
	// E alone is 0.4+0.65 > 1) cannot be formed; the requester must settle
	// for a cheaper jury. The selected jury must respect the budget and
	// not be worse than the best single juror.
	sel, err := SelectPay(figure1(), PayOptions{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost > 1+1e-12 {
		t.Fatalf("cost %.3f exceeds budget", sel.Cost)
	}
	if sel.Size()%2 != 1 {
		t.Fatalf("even jury size %d", sel.Size())
	}
	if sel.JER > 0.2+1e-12 {
		t.Fatalf("JER %.4f worse than best affordable single juror", sel.JER)
	}
}

func TestSelectPayRespectsBudgetProperty(t *testing.T) {
	src := randx.New(202)
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(50)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ErrorRate: src.TruncNormal(0.3, 0.2, 0, 1),
				Cost:      src.TruncNormal(0.4, 0.3, 0, 2),
			}
		}
		budget := src.Float64() * 3
		sel, err := SelectPay(cands, PayOptions{Budget: budget})
		if errors.Is(err, ErrNoFeasibleJury) {
			// Verify infeasibility: every juror alone must exceed budget.
			for _, j := range cands {
				if j.Cost <= budget {
					t.Fatalf("trial %d: feasible juror (cost %g ≤ %g) but ErrNoFeasibleJury", trial, j.Cost, budget)
				}
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if sel.Cost > budget+1e-12 {
			t.Fatalf("trial %d: cost %g exceeds budget %g", trial, sel.Cost, budget)
		}
		if sel.Size()%2 != 1 {
			t.Fatalf("trial %d: even size %d", trial, sel.Size())
		}
	}
}

func TestSelectPayNeverWorseThanSeed(t *testing.T) {
	// The greedy only admits pairs that do not increase JER, so the final
	// JER can never exceed the seed juror's JER.
	src := randx.New(303)
	for trial := 0; trial < 30; trial++ {
		n := 1 + src.Intn(40)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ErrorRate: src.TruncNormal(0.35, 0.2, 0, 1),
				Cost:      src.TruncNormal(0.2, 0.2, 0, 1),
			}
		}
		budget := 0.2 + src.Float64()*2
		sel, err := SelectPay(cands, PayOptions{Budget: budget})
		if errors.Is(err, ErrNoFeasibleJury) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Recompute the seed: first affordable in ε·r order.
		sorted := sortJurors(cands, nil, true)
		var seed *Juror
		for i := range sorted {
			if sorted[i].Cost <= budget {
				seed = &sorted[i]
				break
			}
		}
		if seed == nil {
			t.Fatalf("trial %d: selection succeeded but no affordable seed", trial)
		}
		if sel.JER > seed.ErrorRate+1e-12 {
			t.Fatalf("trial %d: JER %g worse than seed ε %g", trial, sel.JER, seed.ErrorRate)
		}
	}
}

func TestSelectPayZeroBudgetFreeJurors(t *testing.T) {
	cands := []Juror{
		{ID: "free1", ErrorRate: 0.2, Cost: 0},
		{ID: "free2", ErrorRate: 0.3, Cost: 0},
		{ID: "free3", ErrorRate: 0.3, Cost: 0},
		{ID: "paid", ErrorRate: 0.01, Cost: 0.5},
	}
	sel, err := SelectPay(cands, PayOptions{Budget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost != 0 {
		t.Fatalf("cost %g, want 0", sel.Cost)
	}
	// The three free jurors yield JER 0.174 < 0.2 of the seed alone, so
	// the greedy should take all of them.
	if sel.Size() != 3 || !almostEqual(sel.JER, 0.174, 1e-9) {
		t.Fatalf("size %d JER %.4f, want 3 with 0.174", sel.Size(), sel.JER)
	}
}

func TestSelectPayInfeasible(t *testing.T) {
	cands := []Juror{{ID: "x", ErrorRate: 0.5, Cost: 10}}
	if _, err := SelectPay(cands, PayOptions{Budget: 1}); !errors.Is(err, ErrNoFeasibleJury) {
		t.Fatalf("err = %v, want ErrNoFeasibleJury", err)
	}
}

func TestSelectPayNegativeBudget(t *testing.T) {
	cands := []Juror{{ID: "x", ErrorRate: 0.5, Cost: 0}}
	if _, err := SelectPay(cands, PayOptions{Budget: -1}); err == nil {
		t.Fatal("expected error for negative budget")
	}
}

func TestSelectPayStrictModeSpendsMore(t *testing.T) {
	// Strict mode never accumulates the admitted pairs' costs, so it can
	// overshoot the budget — this documents why the fixed bookkeeping is
	// the default. Construct a case where the literal pseudocode admits
	// two pairs whose combined cost exceeds B.
	cands := []Juror{
		{ID: "s", ErrorRate: 0.10, Cost: 0.1}, // seed: product 0.01
		{ID: "a", ErrorRate: 0.20, Cost: 0.4},
		{ID: "b", ErrorRate: 0.20, Cost: 0.4},
		{ID: "c", ErrorRate: 0.21, Cost: 0.4},
		{ID: "d", ErrorRate: 0.21, Cost: 0.4},
	}
	budget := 1.0
	strict, err := SelectPay(cands, PayOptions{Budget: budget, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := SelectPay(cands, PayOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Cost > budget+1e-12 {
		t.Fatalf("fixed mode overshot budget: %g", fixed.Cost)
	}
	if strict.Cost <= budget {
		t.Skipf("strict mode happened to stay within budget (cost %g)", strict.Cost)
	}
	if strict.Size() <= fixed.Size() {
		t.Errorf("expected strict mode to admit more jurors: strict %d fixed %d",
			strict.Size(), fixed.Size())
	}
}

func TestSelectPayNoCandidates(t *testing.T) {
	if _, err := SelectPay(nil, PayOptions{Budget: 1}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestSelectPayLargeBudgetMatchesAltrOnUniformCost(t *testing.T) {
	// With uniform costs and an effectively unlimited budget, PayALG's
	// ε·r ordering coincides with the ε ordering and every improving pair
	// is admitted, so the greedy should find the AltrM optimum.
	src := randx.New(404)
	for trial := 0; trial < 10; trial++ {
		n := 5 + 2*src.Intn(10)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{ID: string(rune('a' + i)), ErrorRate: src.TruncNormal(0.3, 0.15, 0, 1), Cost: 0.1}
		}
		pay, err := SelectPay(cands, PayOptions{Budget: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		altr, err := SelectAltr(cands, AltrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// PayALG admits pairs only while JER does not increase, which is a
		// hill-climbing restriction — it can stop at a local optimum when a
		// temporarily non-improving pair would have unlocked a better
		// larger jury. It must however always reach a JER at least as good
		// as its seed and never beat the true optimum.
		if pay.JER < altr.JER-1e-12 {
			t.Fatalf("trial %d: greedy %.12f beat exact optimum %.12f", trial, pay.JER, altr.JER)
		}
	}
}

// TestSelectPayIncrementalMatchesScratch pins the incremental-distribution
// default against a from-scratch evaluator across random instances: the
// greedy must admit exactly the same jurors in the same order. The
// incremental Append/Pop round-off can differ from a fresh DP evaluation
// in the last ulps, so JER values are compared to relative 1e-10 — an
// admission flip would change the jury itself and fail the ID check.
func TestSelectPayIncrementalMatchesScratch(t *testing.T) {
	src := randx.New(505)
	for trial := 0; trial < 60; trial++ {
		n := 3 + src.Intn(60)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ID:        fmt.Sprintf("j%02d", i),
				ErrorRate: src.TruncNormal(0.3, 0.2, 0, 1),
				Cost:      src.TruncNormal(0.3, 0.3, 0, 2),
			}
		}
		budget := src.Float64() * 4
		opts := PayOptions{Budget: budget, Pairing: PairPolicy(trial % 2), Strict: trial%3 == 0}
		inc, errInc := SelectPay(cands, opts)
		scratch := opts
		scratch.Evaluate = func(rates []float64) (float64, error) {
			return jer.Compute(rates, jer.Auto)
		}
		ref, errRef := SelectPay(cands, scratch)
		if (errInc == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errInc, errRef)
		}
		if errInc != nil {
			continue
		}
		if len(inc.Jurors) != len(ref.Jurors) {
			t.Fatalf("trial %d: jury size %d vs %d", trial, len(inc.Jurors), len(ref.Jurors))
		}
		for i := range inc.Jurors {
			if inc.Jurors[i].ID != ref.Jurors[i].ID {
				t.Fatalf("trial %d juror %d: %s vs %s", trial, i, inc.Jurors[i].ID, ref.Jurors[i].ID)
			}
		}
		if inc.Evaluations != ref.Evaluations {
			t.Fatalf("trial %d: evaluations %d vs %d", trial, inc.Evaluations, ref.Evaluations)
		}
		if math.Abs(inc.JER-ref.JER) > 1e-10 {
			t.Fatalf("trial %d: JER %v vs %v", trial, inc.JER, ref.JER)
		}
	}
}

// TestSelectPayEvaluatorOverride asserts the pluggable evaluator is used
// and selects the same jury as the default. The default evaluator is the
// incremental distribution (Append/Pop), whose round-off can differ from a
// from-scratch jer.Compute in the last ulps, so the reported JERs are
// compared to relative 1e-12 rather than bit-for-bit.
func TestSelectPayEvaluatorOverride(t *testing.T) {
	cands := optTestJurors(20, 9)
	def, err := SelectPay(cands, PayOptions{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	over, err := SelectPay(cands, PayOptions{Budget: 2, Evaluate: func(rates []float64) (float64, error) {
		calls++
		return jer.Compute(rates, jer.Auto)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("override evaluator never called")
	}
	if def.Size() != over.Size() {
		t.Fatalf("override changed the jury: %d jurors vs %d", over.Size(), def.Size())
	}
	for i := range def.Jurors {
		if def.Jurors[i] != over.Jurors[i] {
			t.Fatalf("juror %d differs: %+v vs %+v", i, def.Jurors[i], over.Jurors[i])
		}
	}
	if math.Abs(def.JER-over.JER) > 1e-12*math.Max(def.JER, over.JER) {
		t.Fatalf("override changed result: %v vs %v", over.JER, def.JER)
	}
}
