package voting

import (
	"errors"
	"math"
	"testing"

	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

func TestLogOddsWeightsSigns(t *testing.T) {
	w, err := LogOddsWeights([]float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !(w[0] > 0) {
		t.Errorf("reliable juror weight %g, want > 0", w[0])
	}
	if math.Abs(w[1]) > 1e-12 {
		t.Errorf("coin-flip juror weight %g, want 0", w[1])
	}
	if !(w[2] < 0) {
		t.Errorf("anti-expert weight %g, want < 0", w[2])
	}
	// Symmetry: w(ε) = -w(1-ε).
	if math.Abs(w[0]+w[2]) > 1e-12 {
		t.Errorf("weights not antisymmetric: %g vs %g", w[0], w[2])
	}
}

func TestLogOddsWeightsValidation(t *testing.T) {
	if _, err := LogOddsWeights([]float64{0}); err == nil {
		t.Error("expected error for ε = 0")
	}
	if _, err := LogOddsWeights([]float64{1}); err == nil {
		t.Error("expected error for ε = 1")
	}
}

func TestWeightedMajorityReliableMinorityWins(t *testing.T) {
	// One near-perfect juror against two mediocre ones: the weighted rule
	// must side with the expert even when outvoted.
	rates := []float64{0.01, 0.45, 0.45}
	votes := []bool{true, false, false}
	d, err := WeightedMajorityVote(votes, rates)
	if err != nil {
		t.Fatal(err)
	}
	if d != Yes {
		t.Errorf("weighted vote = %v, want Yes (expert outweighs two coin-flippers)", d)
	}
	// Plain majority goes the other way — that's the gap being measured.
	plain, err := MajorityVote(votes)
	if err != nil {
		t.Fatal(err)
	}
	if plain != No {
		t.Errorf("plain vote = %v, want No", plain)
	}
}

func TestWeightedMajorityEqualRatesMatchesPlain(t *testing.T) {
	// With homogeneous reliable jurors, weighted and plain majority agree
	// on every voting.
	rates := []float64{0.3, 0.3, 0.3, 0.3, 0.3}
	src := randx.New(8)
	for trial := 0; trial < 200; trial++ {
		votes := make([]bool, len(rates))
		for i := range votes {
			votes[i] = src.Bernoulli(0.5)
		}
		wd, err := WeightedMajorityVote(votes, rates)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := MajorityVote(votes)
		if err != nil {
			t.Fatal(err)
		}
		if wd != pd {
			t.Fatalf("votes %v: weighted %v vs plain %v", votes, wd, pd)
		}
	}
}

func TestWeightedMajorityValidation(t *testing.T) {
	if _, err := WeightedMajorityVote(nil, nil); !errors.Is(err, ErrEmptyVoting) {
		t.Error("expected ErrEmptyVoting")
	}
	if _, err := WeightedMajorityVote([]bool{true}, []float64{0.2, 0.3}); !errors.Is(err, ErrWeightMismatch) {
		t.Error("expected ErrWeightMismatch")
	}
	if _, err := WeightedMajorityVote([]bool{true}, []float64{2}); err == nil {
		t.Error("expected error for invalid rate")
	}
}

func TestRunWeightedNeverWorseThanPlain(t *testing.T) {
	// The log-odds rule is the Bayes-optimal aggregator for independent
	// votes, so over many tasks its error rate must not exceed plain
	// majority voting's beyond sampling noise.
	rates := []float64{0.05, 0.3, 0.3, 0.45, 0.45}
	const tasks = 200000
	plain, err := NewSimulator(randx.New(21)).Run(rates, tasks)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := NewSimulator(randx.New(21)).RunWeighted(rates, tasks)
	if err != nil {
		t.Fatal(err)
	}
	slack := 3 * math.Sqrt(plain.ErrorRate()*(1-plain.ErrorRate())/tasks)
	if weighted.ErrorRate() > plain.ErrorRate()+slack {
		t.Errorf("weighted %.5f worse than plain %.5f", weighted.ErrorRate(), plain.ErrorRate())
	}
	// And on this heterogeneous jury it should be strictly better by a
	// visible margin: the expert dominates.
	analyticPlain, err := jer.Compute(rates, jer.DPAlgo)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.ErrorRate() > analyticPlain {
		t.Errorf("weighted %.5f did not beat the plain-MV analytic JER %.5f",
			weighted.ErrorRate(), analyticPlain)
	}
}

func TestRunWeightedValidation(t *testing.T) {
	sim := NewSimulator(randx.New(1))
	if _, err := sim.RunWeighted(nil, 5); !errors.Is(err, ErrEmptyVoting) {
		t.Error("expected ErrEmptyVoting")
	}
	if _, err := sim.RunWeighted([]float64{0.5}, 0); err == nil {
		t.Error("expected error for zero tasks")
	}
	if _, err := sim.RunWeighted([]float64{-1}, 5); err == nil {
		t.Error("expected error for bad rates")
	}
}
