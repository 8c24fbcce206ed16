package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(99)
	b := New(99)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

func TestSplitDeterministicAndDistinct(t *testing.T) {
	a1 := New(5).Split("jurors")
	a2 := New(5).Split("jurors")
	b := New(5).Split("tweets")
	same, diff := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a1.Float64(), a2.Float64(), b.Float64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("identical splits diverged")
	}
	if !diff {
		t.Error("differently labelled splits produced identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	src := New(1)
	const n = 200000
	mean, stddev := 2.5, 1.5
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := src.Normal(mean, stddev)
		sum += x
		sumSq += x * x
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean) > 0.02 {
		t.Errorf("mean = %g, want ≈ %g", gotMean, mean)
	}
	if math.Abs(gotVar-stddev*stddev) > 0.05 {
		t.Errorf("var = %g, want ≈ %g", gotVar, stddev*stddev)
	}
}

func TestTruncNormalStaysInInterval(t *testing.T) {
	src := New(2)
	for i := 0; i < 50000; i++ {
		x := src.TruncNormal(0.5, 0.3, 0, 1)
		if x <= 0 || x >= 1 {
			t.Fatalf("sample %g escaped (0,1)", x)
		}
	}
}

func TestTruncNormalExtremeMeanClamped(t *testing.T) {
	// Mean far outside the interval: rejection exhausts and clamps, but the
	// result must still be interior.
	src := New(3)
	for i := 0; i < 100; i++ {
		x := src.TruncNormal(50, 0.01, 0, 1)
		if x <= 0 || x >= 1 {
			t.Fatalf("clamped sample %g escaped (0,1)", x)
		}
	}
}

func TestTruncNormalZeroStdDev(t *testing.T) {
	src := New(4)
	if x := src.TruncNormal(0.5, 0, 0, 1); x != 0.5 {
		t.Errorf("degenerate interior mean: got %g want 0.5", x)
	}
	if x := src.TruncNormal(2, 0, 0, 1); x <= 0 || x >= 1 {
		t.Errorf("degenerate exterior mean not clamped: %g", x)
	}
}

func TestTruncNormalPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo >= hi")
		}
	}()
	New(5).TruncNormal(0, 1, 1, 0)
}

func TestErrorRatesRangeAndCount(t *testing.T) {
	src := New(6)
	rates := src.ErrorRates(5000, 0.2, 0.1)
	if len(rates) != 5000 {
		t.Fatalf("len = %d, want 5000", len(rates))
	}
	for _, e := range rates {
		if e <= 0 || e >= 1 {
			t.Fatalf("rate %g out of (0,1)", e)
		}
	}
}

func TestRequirementsNonNegative(t *testing.T) {
	src := New(7)
	reqs := src.Requirements(5000, 0.05, 0.2)
	for _, r := range reqs {
		if r < 0 {
			t.Fatalf("requirement %g negative", r)
		}
	}
}

func TestZipfRanksInRange(t *testing.T) {
	src := New(8)
	z := NewZipf(src, 100, 1.2)
	counts := make([]int, 101)
	for i := 0; i < 100000; i++ {
		r := z.Draw()
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of [1,100]", r)
		}
		counts[r]++
	}
	// Power law: rank 1 must dominate rank 10 which must dominate rank 100.
	if !(counts[1] > counts[10] && counts[10] > counts[100]) {
		t.Errorf("counts not power-law shaped: c1=%d c10=%d c100=%d",
			counts[1], counts[10], counts[100])
	}
}

func TestZipfFrequenciesMatchTheory(t *testing.T) {
	src := New(9)
	const n, exp = 50, 1.0
	z := NewZipf(src, n, exp)
	const draws = 300000
	counts := make([]float64, n+1)
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	// Theoretical p(rank) = (1/rank) / H_n.
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	for _, rank := range []int{1, 2, 5, 10} {
		want := (1 / float64(rank)) / h
		got := counts[rank] / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: freq %g want ≈ %g", rank, got, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n   int
		exp float64
	}{{0, 1}, {-1, 1}, {10, 0}, {10, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.n, tc.exp)
				}
			}()
			NewZipf(New(1), tc.n, tc.exp)
		}()
	}
}

func TestBernoulliFrequency(t *testing.T) {
	src := New(12)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("frequency = %g, want ≈ 0.3", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(13)
	p := src.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
