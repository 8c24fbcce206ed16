package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"juryselect/internal/pbdist"
	"juryselect/internal/randx"
)

// Property battery over the solvers: determinism, budget feasibility, odd
// sizes, and cross-solver dominance relations on randomized markets. These
// complement the targeted tests in altr_test.go / pay_test.go / opt_test.go
// with broader randomized coverage.

func randomMarket(seed int64, maxN int) ([]Juror, float64) {
	src := randx.New(seed)
	n := 1 + src.Intn(maxN)
	cands := make([]Juror, n)
	for i := range cands {
		cands[i] = Juror{
			ID:        string(rune('a'+i%26)) + string(rune('0'+i/26)),
			ErrorRate: src.TruncNormal(0.35, 0.25, 0, 1),
			Cost:      src.TruncNormal(0.3, 0.3, 0, 2),
		}
	}
	return cands, src.Float64() * 2
}

func TestPropertySolversDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		cands, budget := randomMarket(seed, 30)
		a1, e1 := SelectAltr(cands, AltrOptions{Incremental: true})
		a2, e2 := SelectAltr(cands, AltrOptions{Incremental: true})
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 == nil && (a1.JER != a2.JER || a1.Size() != a2.Size()) {
			return false
		}
		p1, e3 := SelectPay(cands, PayOptions{Budget: budget})
		p2, e4 := SelectPay(cands, PayOptions{Budget: budget})
		if (e3 == nil) != (e4 == nil) {
			return false
		}
		if e3 == nil && (p1.JER != p2.JER || p1.Size() != p2.Size()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAltrIgnoresCosts(t *testing.T) {
	// The altruism model must be cost-blind: scaling every cost leaves the
	// selection unchanged.
	f := func(seed int64) bool {
		cands, _ := randomMarket(seed, 25)
		scaled := make([]Juror, len(cands))
		copy(scaled, cands)
		for i := range scaled {
			scaled[i].Cost *= 100
		}
		a, e1 := SelectAltr(cands, AltrOptions{Incremental: true})
		b, e2 := SelectAltr(scaled, AltrOptions{Incremental: true})
		if e1 != nil || e2 != nil {
			return e1 != nil && e2 != nil
		}
		return a.JER == b.JER && a.Size() == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBudgetMonotonicityOfOpt(t *testing.T) {
	// OPT's JER is non-increasing in the budget: a larger budget only
	// widens the feasible set. (Not true for the greedy, which is why the
	// paper's Figure 3(f) curves are only roughly monotone.)
	f := func(seed int64) bool {
		src := randx.New(seed)
		n := 3 + src.Intn(10)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{
				ErrorRate: src.TruncNormal(0.3, 0.2, 0, 1),
				Cost:      src.TruncNormal(0.3, 0.3, 0, 2),
			}
		}
		b1 := src.Float64()
		b2 := b1 + src.Float64()
		o1, e1 := SelectOpt(context.Background(), cands, b1, 1)
		o2, e2 := SelectOpt(context.Background(), cands, b2, 1)
		if errors.Is(e1, ErrNoFeasibleJury) {
			return true // smaller budget infeasible says nothing
		}
		if e1 != nil || e2 != nil {
			return false
		}
		return o2.JER <= o1.JER+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAltrOptimalityAgainstOpt(t *testing.T) {
	// AltrALG must equal OPT-with-infinite-budget on every random market
	// small enough to enumerate.
	f := func(seed int64) bool {
		src := randx.New(seed)
		n := 1 + src.Intn(12)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{ErrorRate: src.TruncNormal(0.4, 0.25, 0, 1)}
		}
		a, e1 := SelectAltr(cands, AltrOptions{Incremental: true})
		o, e2 := SelectOpt(context.Background(), cands, 1e18, 1)
		if e1 != nil || e2 != nil {
			return false
		}
		return a.JER <= o.JER+1e-9 && o.JER <= a.JER+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelectionJERConsistent(t *testing.T) {
	// The JER reported by any solver must equal an independent evaluation
	// of the selected jurors' rates.
	f := func(seed int64) bool {
		cands, budget := randomMarket(seed, 25)
		for _, sel := range solveAll(cands, budget) {
			if sel == nil {
				continue
			}
			var d pbdist.Dist
			for _, e := range sel.Rates() {
				if err := d.Append(e); err != nil {
					return false
				}
			}
			want := d.TailAtLeast((sel.Size() + 2) / 2)
			if diff := sel.JER - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// solveAll runs the two main solvers, returning nil entries on infeasible
// markets.
func solveAll(cands []Juror, budget float64) []*Selection {
	out := make([]*Selection, 0, 2)
	if a, err := SelectAltr(cands, AltrOptions{Incremental: true}); err == nil {
		out = append(out, &a)
	} else {
		out = append(out, nil)
	}
	if p, err := SelectPay(cands, PayOptions{Budget: budget}); err == nil {
		out = append(out, &p)
	} else {
		out = append(out, nil)
	}
	return out
}
