package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"juryselect/internal/pbdist"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// figure1 builds the seven jurors of the paper's motivation example,
// including the payment requirements mentioned for D ($0.4) and E ($0.65).
func figure1() []Juror {
	return []Juror{
		{ID: "A", ErrorRate: 0.1, Cost: 0.15},
		{ID: "B", ErrorRate: 0.2, Cost: 0.2},
		{ID: "C", ErrorRate: 0.2, Cost: 0.25},
		{ID: "D", ErrorRate: 0.3, Cost: 0.4},
		{ID: "E", ErrorRate: 0.3, Cost: 0.65},
		{ID: "F", ErrorRate: 0.4, Cost: 0.05},
		{ID: "G", ErrorRate: 0.4, Cost: 0.05},
	}
}

func TestJurorValidate(t *testing.T) {
	good := Juror{ID: "x", ErrorRate: 0.5, Cost: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid juror rejected: %v", err)
	}
	bad := []Juror{
		{ID: "a", ErrorRate: 0, Cost: 0},
		{ID: "b", ErrorRate: 1, Cost: 0},
		{ID: "c", ErrorRate: -0.5, Cost: 0},
		{ID: "d", ErrorRate: math.NaN(), Cost: 0},
		{ID: "e", ErrorRate: 0.5, Cost: -1},
		{ID: "f", ErrorRate: 0.5, Cost: math.NaN()},
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("juror %q accepted with ε=%g cost=%g", j.ID, j.ErrorRate, j.Cost)
		}
	}
}

func TestValidateCandidatesEmpty(t *testing.T) {
	if err := ValidateCandidates(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestValidateCandidatesPropagatesRateError(t *testing.T) {
	err := ValidateCandidates([]Juror{{ID: "x", ErrorRate: 2}})
	if !errors.Is(err, pbdist.ErrRateOutOfRange) {
		t.Fatalf("err = %v, want ErrRateOutOfRange", err)
	}
}

func TestModels(t *testing.T) {
	if !(AltrM{}).Allowed(1e18) {
		t.Error("AltrM must allow any cost")
	}
	if (AltrM{}).Name() != "AltrM" {
		t.Error("AltrM name")
	}
	m := PayM{Budget: 1}
	if !m.Allowed(1) || m.Allowed(1.01) {
		t.Error("PayM budget boundary broken")
	}
	if m.Name() != "PayM" {
		t.Error("PayM name")
	}
}

func TestSelectionAccessors(t *testing.T) {
	s := Selection{Jurors: []Juror{{ID: "a", ErrorRate: 0.1, Cost: 1}, {ID: "b", ErrorRate: 0.2, Cost: 2}}}
	if s.Size() != 2 {
		t.Errorf("Size = %d", s.Size())
	}
	if ids := s.IDs(); ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v", ids)
	}
	if r := s.Rates(); r[0] != 0.1 || r[1] != 0.2 {
		t.Errorf("Rates = %v", r)
	}
}

func TestSortByErrorRateStableDeterministic(t *testing.T) {
	cands := figure1()
	sorted := SortedByErrorRate(cands)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].ErrorRate > sorted[i].ErrorRate {
			t.Fatalf("not sorted at %d: %v", i, sorted)
		}
		if sorted[i-1].ErrorRate == sorted[i].ErrorRate && sorted[i-1].ID > sorted[i].ID {
			t.Fatalf("tie not broken by ID at %d: %v", i, sorted)
		}
	}
	// Input must not be mutated.
	if cands[0].ID != "A" {
		t.Fatal("input slice mutated")
	}
}

func TestSortByCostQuality(t *testing.T) {
	cands := []Juror{
		{ID: "x", ErrorRate: 0.5, Cost: 0.4}, // product 0.20
		{ID: "y", ErrorRate: 0.1, Cost: 1.0}, // product 0.10
		{ID: "z", ErrorRate: 0.2, Cost: 0.5}, // product 0.10, cheaper
	}
	sorted := sortJurors(cands, nil, true)
	wantOrder := []string{"z", "y", "x"}
	for i, id := range wantOrder {
		if sorted[i].ID != id {
			t.Fatalf("order = %v, want %v", sorted, wantOrder)
		}
	}
}

// TestSortsMatchSliceStable pins both sorts to sort.SliceStable with the
// same keys and tie-breaks, kept here as the reference. A stable sort is
// fixed by its comparator, so the orders must agree exactly on inputs
// with tied ε, tied ε·r at different costs, and duplicate IDs at
// different costs, which only stability orders. RankByErrorRate must
// return the same order, and its ranks must place every candidate.
func TestSortsMatchSliceStable(t *testing.T) {
	refByErrorRate := func(cands []Juror) []Juror {
		out := append([]Juror(nil), cands...)
		sort.SliceStable(out, func(i, k int) bool {
			if out[i].ErrorRate != out[k].ErrorRate {
				return out[i].ErrorRate < out[k].ErrorRate
			}
			return out[i].ID < out[k].ID
		})
		return out
	}
	refByCostQuality := func(cands []Juror) []Juror {
		out := append([]Juror(nil), cands...)
		sort.SliceStable(out, func(i, k int) bool {
			pi, pk := out[i].ErrorRate*out[i].Cost, out[k].ErrorRate*out[k].Cost
			if pi != pk {
				return pi < pk
			}
			if out[i].Cost != out[k].Cost {
				return out[i].Cost < out[k].Cost
			}
			return out[i].ID < out[k].ID
		})
		return out
	}
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	costs := []float64{0, 0.25, 0.5, 1, 2}
	rng := rand.New(rand.NewSource(5))
	productTies := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		if trial == 0 {
			n = 1001
		}
		cands := make([]Juror, n)
		for i := range cands {
			eps, cost := rates[rng.Intn(len(rates))], costs[rng.Intn(len(costs))]
			if rng.Intn(2) == 0 {
				// Halving ε and doubling r is exact, so ε·r ties at a
				// different cost.
				eps, cost = eps/2, cost*2
			}
			cands[i] = Juror{ID: fmt.Sprintf("j%d", rng.Intn(n/3+1)), ErrorRate: eps, Cost: cost}
		}
		for i := 1; i < n; i++ {
			a, b := cands[i-1], cands[i]
			if a.ErrorRate*a.Cost == b.ErrorRate*b.Cost && a.Cost != b.Cost {
				productTies++
			}
		}
		want := refByErrorRate(cands)
		if got := SortedByErrorRate(cands); !slices.Equal(got, want) {
			t.Fatalf("trial %d: SortedByErrorRate diverges from sort.SliceStable:\ngot  %v\nwant %v", trial, got, want)
		}
		sorted, rank := RankByErrorRate(cands)
		if !slices.Equal(sorted, want) {
			t.Fatalf("trial %d: RankByErrorRate sorts differently from sort.SliceStable", trial)
		}
		placed := make([]bool, n)
		for i, r := range rank {
			if placed[r] || sorted[r] != cands[i] {
				t.Fatalf("trial %d: rank[%d] = %d does not place candidate %d", trial, i, r, i)
			}
			placed[r] = true
		}
		if got, want := sortJurors(cands, nil, true), refByCostQuality(cands); !slices.Equal(got, want) {
			t.Fatalf("trial %d: the ε·r sort diverges from sort.SliceStable:\ngot  %v\nwant %v", trial, got, want)
		}
	}
	if productTies == 0 {
		t.Fatal("no input had tied ε·r at different costs")
	}
}

// BenchmarkSortByErrorRate sorts 1,001 jurors with random ε: the sort
// every pool version and every inline altruistic select pays once.
func BenchmarkSortByErrorRate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cands := make([]Juror, 1001)
	for i := range cands {
		cands[i] = Juror{ID: fmt.Sprintf("j%d", i), ErrorRate: rng.Float64(), Cost: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(SortedByErrorRate(cands)) != len(cands) {
			b.Fatal("short result")
		}
	}
}
