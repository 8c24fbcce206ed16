package core

import (
	"context"
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

func optTestJurors(n int, seed int64) []Juror {
	src := randx.New(seed)
	rates := src.ErrorRates(n, 0.3, 0.15)
	costs := src.Requirements(n, 0.2, 0.15)
	out := make([]Juror, n)
	for i := range out {
		out[i] = Juror{ID: string(rune('a' + i)), ErrorRate: rates[i], Cost: costs[i]}
	}
	return out
}

// TestSelectOptMatchesBruteForce checks the enumerator at one worker (the
// caller's goroutine) and at two. The 16- and 17-candidate trials run 256
// shards, so each worker's reused state crosses many of them.
func TestSelectOptMatchesBruteForce(t *testing.T) {
	src := randx.New(71)
	for trial := 0; trial < 14; trial++ {
		n := 3 + src.Intn(8)
		if trial >= 12 {
			n = 4 + trial
		}
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
		for _, workers := range []int{1, 2} {
			got, err := SelectOpt(context.Background(), cands, budget, workers)
			if !feasible {
				if !errors.Is(err, ErrNoFeasibleJury) {
					t.Fatalf("trial %d workers=%d: want ErrNoFeasibleJury, got %v", trial, workers, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got.JER, want, 1e-9) {
				t.Fatalf("trial %d workers=%d: SelectOpt %.12f vs brute force %.12f", trial, workers, got.JER, want)
			}
			if got.Cost > budget+1e-12 {
				t.Fatalf("trial %d workers=%d: OPT cost %g exceeds budget %g", trial, workers, got.Cost, budget)
			}
			if got.Size()%2 != 1 {
				t.Fatalf("trial %d workers=%d: even OPT size %d", trial, workers, got.Size())
			}
		}
	}
}

// TestSelectOptDeterministicAcrossWorkers asserts the result is bit-for-bit
// identical for every worker count, one worker included.
func TestSelectOptDeterministicAcrossWorkers(t *testing.T) {
	cands := optTestJurors(18, 42)
	var base Selection
	for i, w := range []int{1, 2, 3, 8, 0} {
		got, err := SelectOpt(context.Background(), cands, 2, w)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = got
			continue
		}
		if math.Float64bits(got.JER) != math.Float64bits(base.JER) {
			t.Fatalf("workers=%d: JER %v != %v (not byte-identical)", w, got.JER, base.JER)
		}
		if got.Evaluations != base.Evaluations {
			t.Fatalf("workers=%d: %d evaluations != %d", w, got.Evaluations, base.Evaluations)
		}
		if len(got.Jurors) != len(base.Jurors) {
			t.Fatalf("workers=%d: size %d != %d", w, len(got.Jurors), len(base.Jurors))
		}
		for j := range got.Jurors {
			if got.Jurors[j] != base.Jurors[j] {
				t.Fatalf("workers=%d: juror %d differs", w, j)
			}
		}
	}
}

// TestSelectOptParallelMatchesSerial asserts the sharded enumeration on
// four workers returns what one worker, on the caller's goroutine, returns
// across sizes and budgets: the same error, or the same jury, JER bits and
// evaluation count. Below 16 candidates the shard count grows with n, so
// the small sizes also run with fewer shards than workers.
func TestSelectOptParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 14, 17} {
		for _, budget := range []float64{0.3, 1, 5, 1e18} {
			cands := optTestJurors(n, int64(n))
			serial, errS := SelectOpt(context.Background(), cands, budget, 1)
			par, errP := SelectOpt(context.Background(), cands, budget, 4)
			if (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
				t.Fatalf("n=%d B=%g: error mismatch %v vs %v", n, budget, errS, errP)
			}
			if errS != nil {
				continue
			}
			if got, want := par.IDs(), serial.IDs(); len(got) != len(want) {
				t.Fatalf("n=%d B=%g: jury size %d vs %d", n, budget, len(got), len(want))
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d B=%g: jury %v vs %v", n, budget, got, want)
					}
				}
			}
			if math.Float64bits(par.JER) != math.Float64bits(serial.JER) {
				t.Fatalf("n=%d B=%g: JER %v vs %v", n, budget, par.JER, serial.JER)
			}
			if par.Evaluations != serial.Evaluations {
				t.Fatalf("n=%d B=%g: evaluations %d vs %d", n, budget, par.Evaluations, serial.Evaluations)
			}
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
		opt, err1 := SelectOpt(context.Background(), cands, budget, 1)
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
	if _, err := SelectOpt(context.Background(), cands, 1, 1); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestSelectOptValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SelectOpt(ctx, nil, 1, 1); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
	if _, err := SelectOpt(ctx, []Juror{{ErrorRate: 0.5}}, -1, 1); err == nil {
		t.Error("expected error for negative budget")
	}
	if _, err := SelectOpt(ctx, []Juror{{ErrorRate: 1.2}}, 1, 1); !errors.Is(err, pbdist.ErrRateOutOfRange) {
		t.Errorf("err = %v, want ErrRateOutOfRange", err)
	}
}

// TestSelectOptParallelErrors: every failure mode, cancellation included,
// comes back the same from one worker and from a pool of them.
func TestSelectOptParallelErrors(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	costly := []Juror{{ID: "x", ErrorRate: 0.2, Cost: 5}}
	for _, workers := range []int{1, 4, 0} {
		ctx := context.Background()
		if _, err := SelectOpt(ctx, nil, 1, workers); !errors.Is(err, ErrNoCandidates) {
			t.Errorf("workers=%d: want ErrNoCandidates, got %v", workers, err)
		}
		if _, err := SelectOpt(ctx, optTestJurors(3, 1), -1, workers); err == nil {
			t.Errorf("workers=%d: negative budget accepted", workers)
		}
		if _, err := SelectOpt(ctx, optTestJurors(MaxOptCandidates+1, 1), 1, workers); err == nil {
			t.Errorf("workers=%d: oversized candidate set accepted", workers)
		}
		if _, err := SelectOpt(ctx, costly, 1, workers); !errors.Is(err, ErrNoFeasibleJury) {
			t.Errorf("workers=%d: want ErrNoFeasibleJury, got %v", workers, err)
		}
		if _, err := SelectOpt(done, optTestJurors(17, 1), 2, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled enumeration returned %v, want context.Canceled", workers, err)
		}
	}
}

func TestSelectOptInfeasible(t *testing.T) {
	cands := []Juror{{ErrorRate: 0.5, Cost: 5}, {ErrorRate: 0.4, Cost: 7}}
	if _, err := SelectOpt(context.Background(), cands, 1, 1); !errors.Is(err, ErrNoFeasibleJury) {
		t.Fatalf("err = %v, want ErrNoFeasibleJury", err)
	}
}

func TestSelectOptDeterministic(t *testing.T) {
	cands := []Juror{
		{ID: "a", ErrorRate: 0.3, Cost: 0.1},
		{ID: "b", ErrorRate: 0.3, Cost: 0.1},
		{ID: "c", ErrorRate: 0.3, Cost: 0.1},
	}
	first, err := SelectOpt(context.Background(), cands, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := SelectOpt(context.Background(), cands, 1, 1)
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
	sel, err := SelectOpt(context.Background(), cands, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// {f1,f2,f3} has JER 0.174 < 0.2 of f1 alone.
	if sel.Size() != 3 || math.Abs(sel.JER-0.174) > 1e-9 {
		t.Fatalf("size %d JER %g, want 3 / 0.174", sel.Size(), sel.JER)
	}
}
