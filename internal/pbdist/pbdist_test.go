package pbdist

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// build appends each rate, in order, to a fresh distribution.
func build(t *testing.T, rates []float64) *Dist {
	t.Helper()
	d := &Dist{}
	for _, p := range rates {
		if err := d.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestZeroValueIsPointMass(t *testing.T) {
	var d Dist
	if d.N() != 0 {
		t.Fatalf("N = %d, want 0", d.N())
	}
	if got := d.TailAtLeast(0); got != 1 {
		t.Fatalf("TailAtLeast(0) = %g, want 1", got)
	}
	if got := d.TailAtLeast(1); got != 0 {
		t.Fatalf("TailAtLeast(1) = %g, want 0", got)
	}
}

func TestSingleTrial(t *testing.T) {
	d := build(t, []float64{0.3})
	if len(d.pmf) != 2 || !almostEqual(d.pmf[0], 0.7, 1e-12) || !almostEqual(d.pmf[1], 0.3, 1e-12) {
		t.Fatalf("PMF = %v, want [0.7 0.3]", d.pmf)
	}
}

func TestMotivationExampleCDE(t *testing.T) {
	// Paper Section 1: jurors C, D, E with ε = 0.2, 0.3, 0.3 give
	// Pr(C ≥ 2) = 0.174.
	d := build(t, []float64{0.2, 0.3, 0.3})
	if got := d.TailAtLeast(2); !almostEqual(got, 0.174, 1e-12) {
		t.Fatalf("JER(C,D,E) = %.6f, want 0.174", got)
	}
}

func TestMotivationExampleABC(t *testing.T) {
	// Jurors A, B, C with ε = 0.1, 0.2, 0.2 give Pr(C ≥ 2) = 0.072.
	d := build(t, []float64{0.1, 0.2, 0.2})
	if got := d.TailAtLeast(2); !almostEqual(got, 0.072, 1e-12) {
		t.Fatalf("JER(A,B,C) = %.6f, want 0.072", got)
	}
}

func TestPMFSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 50, 301} {
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.001 + 0.998*rng.Float64()
		}
		d := build(t, rates)
		sum := 0.0
		for _, v := range d.pmf {
			if v < 0 {
				t.Fatalf("n=%d: negative mass %g", n, v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("n=%d: total mass %g", n, sum)
		}
	}
}

func TestAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 5, 9, 12} {
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.05 + 0.9*rng.Float64()
		}
		d := build(t, rates)
		for k := 0; k <= n+1; k++ {
			want, err := TailEnum(rates, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.TailAtLeast(k); !almostEqual(got, want, 1e-10) {
				t.Fatalf("n=%d k=%d: Dist %.12f enum %.12f", n, k, got, want)
			}
		}
	}
}

func TestMoments(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.25, 0.4}
	d := build(t, rates)
	// The PMF's moments are Σε_i and Σε_i(1-ε_i).
	wantMean := 0.1 + 0.2 + 0.25 + 0.4
	wantVar := 0.1*0.9 + 0.2*0.8 + 0.25*0.75 + 0.4*0.6
	m, m2 := 0.0, 0.0
	for k, p := range d.pmf {
		m += float64(k) * p
		m2 += float64(k) * float64(k) * p
	}
	if !almostEqual(m, wantMean, 1e-10) {
		t.Errorf("PMF mean = %g, want %g", m, wantMean)
	}
	if !almostEqual(m2-m*m, wantVar, 1e-10) {
		t.Errorf("PMF var = %g, want %g", m2-m*m, wantVar)
	}
}

func TestAppendPopRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := build(t, []float64{0.2, 0.7, 0.5})
	before := slices.Clone(d.pmf)
	// Push/pop a variety of rates, including ones near both ends where
	// deconvolution stability matters.
	for _, p := range []float64{0.01, 0.5, 0.99, 0.3, 0.849, rng.Float64()*0.98 + 0.01} {
		if err := d.Append(p); err != nil {
			t.Fatal(err)
		}
		if err := d.Pop(); err != nil {
			t.Fatal(err)
		}
		after := d.pmf
		for k := range before {
			if !almostEqual(after[k], before[k], 1e-10) {
				t.Fatalf("p=%g k=%d: %g != %g", p, k, after[k], before[k])
			}
		}
	}
}

func TestDeepAppendPopStack(t *testing.T) {
	// Simulate the DFS usage pattern of the OPT enumerator: many nested
	// push/pop pairs must keep the distribution exact.
	rng := rand.New(rand.NewSource(41))
	base := []float64{0.3, 0.6}
	d := build(t, base)
	var stack []float64
	for step := 0; step < 2000; step++ {
		if len(stack) == 0 || (len(stack) < 20 && rng.Intn(2) == 0) {
			p := 0.02 + 0.96*rng.Float64()
			stack = append(stack, p)
			if err := d.Append(p); err != nil {
				t.Fatal(err)
			}
		} else {
			stack = stack[:len(stack)-1]
			if err := d.Pop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range stack {
		if err := d.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	want := build(t, base).pmf
	got := d.pmf
	for k := range want {
		if !almostEqual(got[k], want[k], 1e-8) {
			t.Fatalf("k=%d: %g != %g after long push/pop walk", k, got[k], want[k])
		}
	}
}

// TestResetMatchesFresh: after a push/pop walk has left round-off in the
// buffers, Reset and the same appends reproduce a fresh Dist bit for bit,
// which is what lets the OPT enumerator reuse one Dist across shards.
func TestResetMatchesFresh(t *testing.T) {
	var zero Dist
	zero.Reset()
	if zero.N() != 0 || zero.TailAtLeast(1) != 0 {
		t.Fatalf("Reset of the zero value: N %d, tail %g", zero.N(), zero.TailAtLeast(1))
	}
	rng := rand.New(rand.NewSource(43))
	d := build(t, []float64{0.3, 0.6, 0.45})
	for step := 0; step < 200; step++ {
		if err := d.Append(0.02 + 0.96*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			if err := d.Pop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Reset()
	rates := []float64{0.12, 0.71, 0.33, 0.5}
	for _, p := range rates {
		if err := d.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	want := build(t, rates)
	if d.N() != want.N() || !slices.Equal(d.pmf, want.pmf) {
		t.Fatalf("after Reset: %v, fresh: %v", d.pmf, want.pmf)
	}
}

func TestPopEmptyErrors(t *testing.T) {
	var d Dist
	if err := d.Pop(); err == nil {
		t.Fatal("expected error popping empty distribution")
	}
}

func TestValidation(t *testing.T) {
	for _, bad := range [][]float64{{0}, {1}, {-0.1}, {1.1}, {math.NaN()}, {0.5, 2}} {
		if err := ValidateRates(bad); !errors.Is(err, ErrRateOutOfRange) {
			t.Errorf("ValidateRates(%v): err = %v, want ErrRateOutOfRange", bad, err)
		}
	}
	for _, bad := range []float64{0, 1, -0.1, 1.1, math.NaN()} {
		d := build(t, []float64{0.5})
		if err := d.Append(bad); !errors.Is(err, ErrRateOutOfRange) {
			t.Errorf("Append(%v): err = %v, want ErrRateOutOfRange", bad, err)
		}
		if d.N() != 1 {
			t.Errorf("Append(%v) rejected but N = %d, want 1", bad, d.N())
		}
	}
}

func TestTailEnumBounds(t *testing.T) {
	if _, err := TailEnum(make([]float64, 26), 1); err == nil {
		t.Fatal("expected error for n > 25")
	}
	got, err := TailEnum([]float64{0.5}, 0)
	if err != nil || got != 1 {
		t.Fatalf("TailEnum(k=0) = %g, %v; want 1, nil", got, err)
	}
	got, err = TailEnum([]float64{0.5}, 2)
	if err != nil || got != 0 {
		t.Fatalf("TailEnum(k=2) = %g, %v; want 0, nil", got, err)
	}
}

func TestTailMonotoneInK(t *testing.T) {
	d := build(t, []float64{0.1, 0.5, 0.9, 0.33, 0.72})
	prev := 1.0
	for k := 0; k <= 6; k++ {
		cur := d.TailAtLeast(k)
		if cur > prev+1e-12 {
			t.Fatalf("tail increased at k=%d: %g > %g", k, cur, prev)
		}
		prev = cur
	}
}

// Property: identically-distributed trials reduce to the Binomial law.
func TestBinomialSpecialCase(t *testing.T) {
	const n, p = 12, 0.3
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = p
	}
	d := build(t, rates)
	for k := 0; k <= n; k++ {
		want := binomPMF(n, k, p)
		if got := d.pmf[k]; !almostEqual(got, want, 1e-10) {
			t.Fatalf("k=%d: got %g want %g", k, got, want)
		}
	}
}

func binomPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}

// Property: appending a trial never decreases the tail at a fixed k
// (an extra potentially-wrong juror can only add wrong votes).
func TestAppendTailMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.02 + 0.96*rng.Float64()
		}
		d := build(t, rates)
		k := 1 + rng.Intn(n)
		before := d.TailAtLeast(k)
		if err := d.Append(0.02 + 0.96*rng.Float64()); err != nil {
			return false
		}
		after := d.TailAtLeast(k)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dist tail equals enumeration tail on random small instances.
func TestQuickTailMatchesEnum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.02 + 0.96*rng.Float64()
		}
		k := rng.Intn(n + 2)
		d := build(t, rates)
		want, err := TailEnum(rates, k)
		if err != nil {
			return false
		}
		return almostEqual(d.TailAtLeast(k), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rates := make([]float64, 1000)
	for i := range rates {
		rates[i] = 0.01 + 0.98*rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d Dist
		for _, p := range rates {
			_ = d.Append(p)
		}
	}
}

// TestTailAtLeastCompensation asserts the compensated tail sum tracks an
// exact big.Float reference within 1 ulp on an adversarial large-n rate
// set where the uncompensated accumulation it replaced drifts by many
// ulps. The PMF of 8191 heterogeneous jurors spreads mass over thousands
// of entries across ~30 orders of magnitude — exactly the shape that
// accumulates O(n)-ulp error in a plain left-to-right sum.
func TestTailAtLeastCompensation(t *testing.T) {
	n := 8191
	rates := make([]float64, n)
	rng := rand.New(rand.NewSource(71))
	for i := range rates {
		rates[i] = 0.05 + 0.9*rng.Float64()
	}
	d := build(t, rates)
	k := (n + 2) / 2 // the JER threshold, deep in the distribution's bulk
	got := d.TailAtLeast(k)

	exact := new(big.Float).SetPrec(200)
	for _, v := range d.pmf[k:] {
		exact.Add(exact, new(big.Float).SetFloat64(v))
	}
	want, _ := exact.Float64()
	ulp := math.Nextafter(want, math.Inf(1)) - want
	if math.Abs(got-want) > ulp {
		t.Fatalf("compensated tail %v off exact %v by %g (> 1 ulp)", got, want, math.Abs(got-want))
	}
	naive := 0.0
	for _, v := range d.pmf[k:] {
		naive += v
	}
	if drift := math.Abs(naive - want); drift <= ulp {
		t.Logf("note: naive drift %g within 1 ulp on this rate set", drift)
	} else {
		t.Logf("removed naive drift of %.0f ulps", math.Abs(naive-want)/ulp)
	}
	if math.Abs(naive-want) < math.Abs(got-want) {
		t.Fatalf("naive sum closer than compensated: %g vs %g", math.Abs(naive-want), math.Abs(got-want))
	}
}
