package jer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"juryselect/internal/pbdist"
	"juryselect/internal/randx"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// epsAG are the error rates of jurors A–G from the paper's motivation
// example (Figure 1 / Table 2).
var epsAG = []float64{0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4}

// table2 lists the juries of Table 2 with exact JER values. Two cells of
// the printed table are rounded/typo'd in the paper (0.0703 for 0.07036;
// 0.0805 where the running text says 0.085 and the exact value is
// 0.085248); the exact values below are verified independently by the
// enumeration evaluator in TestTable2AllAlgorithmsAgree.
var table2 = []struct {
	name  string
	rates []float64
	want  float64
}{
	{"C", []float64{0.2}, 0.2},
	{"A", []float64{0.1}, 0.1},
	{"C,D,E", []float64{0.2, 0.3, 0.3}, 0.174},
	{"A,B,C", []float64{0.1, 0.2, 0.2}, 0.072},
	{"A,B,C,D,E", []float64{0.1, 0.2, 0.2, 0.3, 0.3}, 0.07036},
	{"A,B,C,D,E,F,G", epsAG, 0.085248},
	{"A,B,C,F,G", []float64{0.1, 0.2, 0.2, 0.4, 0.4}, 0.10384},
}

func TestTable2GoldenValues(t *testing.T) {
	for _, tc := range table2 {
		got, err := Compute(tc.rates, DPAlgo)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("JER(%s) = %.6f, want %.6f", tc.name, got, tc.want)
		}
	}
}

func TestTable2AllAlgorithmsAgree(t *testing.T) {
	for _, tc := range table2 {
		enum, err := Compute(tc.rates, EnumAlgo)
		if err != nil {
			t.Fatal(err)
		}
		dpv, err := Compute(tc.rates, DPAlgo)
		if err != nil {
			t.Fatal(err)
		}
		cbav, err := Compute(tc.rates, CBAAlgo)
		if err != nil {
			t.Fatal(err)
		}
		autov, err := Compute(tc.rates, Auto)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []float64{dpv, cbav, autov} {
			if !almostEqual(got, enum, 1e-9) {
				t.Errorf("%s: algorithms disagree: enum=%.12f dp=%.12f cba=%.12f auto=%.12f",
					tc.name, enum, dpv, cbav, autov)
			}
		}
	}
}

func TestFailThreshold(t *testing.T) {
	cases := map[int]int{1: 1, 3: 2, 5: 3, 7: 4, 101: 51, 2: 2, 4: 3, 6: 4}
	for n, want := range cases {
		if got := FailThreshold(n); got != want {
			t.Errorf("FailThreshold(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEmptyJury(t *testing.T) {
	for _, algo := range []Algorithm{Auto, DPAlgo, CBAAlgo, EnumAlgo} {
		if _, err := Compute(nil, algo); !errors.Is(err, ErrEmptyJury) {
			t.Errorf("%v: err = %v, want ErrEmptyJury", algo, err)
		}
	}
}

func TestInvalidRates(t *testing.T) {
	for _, algo := range []Algorithm{Auto, DPAlgo, CBAAlgo, EnumAlgo} {
		if _, err := Compute([]float64{0.5, 1.5}, algo); !errors.Is(err, pbdist.ErrRateOutOfRange) {
			t.Errorf("%v: err = %v, want ErrRateOutOfRange", algo, err)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Compute([]float64{0.5}, Algorithm(99)); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAlgorithmString(t *testing.T) {
	for algo, want := range map[Algorithm]string{Auto: "auto", DPAlgo: "dp", CBAAlgo: "cba", EnumAlgo: "enum"} {
		if algo.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(algo), algo.String(), want)
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Errorf("unexpected string for unknown algorithm: %q", Algorithm(42).String())
	}
}

func TestDPMatchesCBARandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.01 + 0.98*rng.Float64()
		}
		dpv, err1 := Compute(rates, DPAlgo)
		cbav, err2 := Compute(rates, CBAAlgo)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(dpv, cbav, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDPMatchesEnumRandomSmall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.01 + 0.98*rng.Float64()
		}
		dpv, err1 := Compute(rates, DPAlgo)
		ev, err2 := Compute(rates, EnumAlgo)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(dpv, ev, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeJuryCBA(t *testing.T) {
	// Auto must route large juries through CBA and still agree with DP.
	rng := rand.New(rand.NewSource(5))
	n := 2001
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.05 + 0.5*rng.Float64()
	}
	dpv, err := Compute(rates, DPAlgo)
	if err != nil {
		t.Fatal(err)
	}
	autov, err := Compute(rates, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(dpv, autov, 1e-8) {
		t.Fatalf("dp=%.12f auto(cba)=%.12f", dpv, autov)
	}
}

func TestJERBetweenZeroAndOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.01 + 0.98*rng.Float64()
		}
		v, err := Compute(rates, Auto)
		return err == nil && v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 3's key step: JER is monotone increasing in each individual ε.
func TestJERMonotoneInIndividualRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + 2*rng.Intn(6) // odd sizes 1..11
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.05 + 0.9*rng.Float64()
		}
		i := rng.Intn(n)
		lo, err1 := Compute(rates, DPAlgo)
		bumped := make([]float64, n)
		copy(bumped, rates)
		bumped[i] = bumped[i] + (0.999-bumped[i])*rng.Float64()
		hi, err2 := Compute(bumped, DPAlgo)
		if err1 != nil || err2 != nil {
			return false
		}
		return hi >= lo-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		rates := make([]float64, n)
		for i := range rates {
			// Bias toward high error rates so γ < 1 happens often.
			rates[i] = 0.3 + 0.69*rng.Float64()
		}
		bound, usable := LowerBound(rates)
		if !usable {
			return true
		}
		exact, err := Compute(rates, DPAlgo)
		if err != nil {
			return false
		}
		return bound <= exact+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundUsability(t *testing.T) {
	// Reliable jurors: μ = 0.3 < threshold 2 ⇒ γ > 1 ⇒ unusable.
	if _, usable := LowerBound([]float64{0.1, 0.1, 0.1}); usable {
		t.Error("bound should be unusable when γ ≥ 1")
	}
	// Error-prone jurors: μ = 2.7 > threshold 2 ⇒ γ < 1 ⇒ usable.
	if _, usable := LowerBound([]float64{0.9, 0.9, 0.9}); !usable {
		t.Error("bound should be usable when γ < 1")
	}
	if _, usable := LowerBound(nil); usable {
		t.Error("bound should be unusable for empty jury")
	}
}

func TestLowerBoundMomentsMatchesLowerBound(t *testing.T) {
	rates := []float64{0.8, 0.7, 0.95}
	mu, sigma2 := 0.0, 0.0
	for _, e := range rates {
		mu += e
		sigma2 += e * (1 - e)
	}
	b1, u1 := LowerBound(rates)
	b2, u2 := LowerBoundMoments(len(rates), mu, sigma2)
	if u1 != u2 || !almostEqual(b1, b2, 1e-14) {
		t.Fatalf("mismatch: (%g,%v) vs (%g,%v)", b1, u1, b2, u2)
	}
}

// monteCarlo estimates JER by simulating trials independent votings: each
// juror votes wrongly with probability ε_i and the voting fails when the
// wrong count reaches the failure threshold. The estimator is unbiased with
// standard error ≤ 1/(2√trials). It is the simulation oracle the analytic
// evaluators are checked against.
func monteCarlo(rates []float64, trials int, src *randx.Source) (float64, error) {
	if len(rates) == 0 {
		return 0, ErrEmptyJury
	}
	if trials <= 0 {
		return 0, errors.New("monteCarlo requires trials > 0")
	}
	if err := pbdist.ValidateRates(rates); err != nil {
		return 0, err
	}
	threshold := FailThreshold(len(rates))
	fails := 0
	for t := 0; t < trials; t++ {
		wrong := 0
		for _, e := range rates {
			if src.Bernoulli(e) {
				wrong++
				if wrong >= threshold {
					break // outcome decided; skip remaining jurors
				}
			}
		}
		if wrong >= threshold {
			fails++
		}
	}
	return float64(fails) / float64(trials), nil
}

func TestMonteCarloConvergesToAnalytic(t *testing.T) {
	src := randx.New(77)
	for _, tc := range []struct {
		rates []float64
	}{
		{[]float64{0.2, 0.3, 0.3}},
		{[]float64{0.1, 0.2, 0.2, 0.3, 0.3}},
		{[]float64{0.45, 0.45, 0.45, 0.45, 0.45, 0.45, 0.45}},
	} {
		exact, err := Compute(tc.rates, DPAlgo)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 400000
		est, err := monteCarlo(tc.rates, trials, src)
		if err != nil {
			t.Fatal(err)
		}
		// Three-sigma band for a Bernoulli proportion.
		sigma := math.Sqrt(exact * (1 - exact) / trials)
		if math.Abs(est-exact) > 4*sigma+1e-4 {
			t.Errorf("rates %v: MC %.5f vs exact %.5f (σ=%.5f)", tc.rates, est, exact, sigma)
		}
	}
}

func TestMonteCarloValidation(t *testing.T) {
	src := randx.New(1)
	if _, err := monteCarlo(nil, 100, src); !errors.Is(err, ErrEmptyJury) {
		t.Error("expected ErrEmptyJury")
	}
	if _, err := monteCarlo([]float64{0.5}, 0, src); err == nil {
		t.Error("expected error for zero trials")
	}
	if _, err := monteCarlo([]float64{1.5}, 10, src); err == nil {
		t.Error("expected error for invalid rate")
	}
}

func TestSweepMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 301
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.01 + 0.98*rng.Float64()
	}
	s := NewSweep()
	for m := 1; m <= n; m++ {
		if err := s.Extend(rates[m-1]); err != nil {
			t.Fatal(err)
		}
		if s.N() != m {
			t.Fatalf("N = %d, want %d", s.N(), m)
		}
		got, err := s.JER()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compute(rates[:m], DPAlgo)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want, 1e-9) {
			t.Fatalf("prefix %d: sweep %.12f dp %.12f", m, got, want)
		}
	}
}

func TestSweepLowerBoundMatches(t *testing.T) {
	s := NewSweep()
	rates := []float64{0.8, 0.9, 0.7}
	for _, e := range rates {
		if err := s.Extend(e); err != nil {
			t.Fatal(err)
		}
	}
	b1, u1 := s.LowerBound()
	b2, u2 := LowerBound(rates)
	if u1 != u2 || !almostEqual(b1, b2, 1e-12) {
		t.Fatalf("sweep bound (%g,%v) vs direct (%g,%v)", b1, u1, b2, u2)
	}
}

func TestSweepEmptyJER(t *testing.T) {
	if _, err := NewSweep().JER(); !errors.Is(err, ErrEmptyJury) {
		t.Fatal("expected ErrEmptyJury from empty sweep")
	}
}

func TestDistributionZeroAndOneJuror(t *testing.T) {
	if d := Distribution(nil); len(d) != 1 || d[0] != 1 {
		t.Errorf("Distribution(nil) = %v", d)
	}
	d := Distribution([]float64{0.25})
	if len(d) != 2 || !almostEqual(d[0], 0.75, 1e-15) || !almostEqual(d[1], 0.25, 1e-15) {
		t.Errorf("Distribution([0.25]) = %v", d)
	}
}

// TestComputeAllocations holds the pooled kernels behind Compute at zero
// allocations in steady state, at the sizes of the module root's
// BenchmarkJER_DP_n1001 and BenchmarkJER_CBA_n8191 and at a small jury.
func TestComputeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	for _, tc := range []struct {
		algo Algorithm
		n    int
	}{{DPAlgo, 11}, {DPAlgo, 1001}, {CBAAlgo, 8191}} {
		rates := randx.New(7).ErrorRates(tc.n, 0.3, 0.15)
		got := testing.AllocsPerRun(20, func() {
			if _, err := Compute(rates, tc.algo); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("Compute(%s, n=%d) allocates %.0f/op, want 0", tc.algo, tc.n, got)
		}
	}
}

func BenchmarkDP501(b *testing.B)   { benchAlgo(b, DPAlgo, 501) }
func BenchmarkCBA501(b *testing.B)  { benchAlgo(b, CBAAlgo, 501) }
func BenchmarkDP4001(b *testing.B)  { benchAlgo(b, DPAlgo, 4001) }
func BenchmarkCBA4001(b *testing.B) { benchAlgo(b, CBAAlgo, 4001) }

func benchAlgo(b *testing.B, algo Algorithm, n int) {
	rng := rand.New(rand.NewSource(1))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.01 + 0.98*rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(rates, algo); err != nil {
			b.Fatal(err)
		}
	}
}
