package jer

import (
	"math"
	"math/big"
	"testing"

	"juryselect/internal/fft"
	"juryselect/internal/pbdist"
	"juryselect/internal/randx"
)

// recursiveDistribution is the pre-refactor formulation of Algorithm 2 —
// allocate-per-node recursion, split at the floor midpoint, merge each
// node into a fresh slice with fft.ConvolveInto — kept as the reference
// the iterative kernel must reproduce bit-for-bit.
func recursiveDistribution(rates []float64, fs *fft.Scratch) []float64 {
	n := len(rates)
	if n == 0 {
		return []float64{1}
	}
	if n == 1 {
		return []float64{1 - rates[0], rates[0]}
	}
	mid := n / 2
	left := recursiveDistribution(rates[:mid], fs)
	right := recursiveDistribution(rates[mid:], fs)
	return fft.ConvolveInto(make([]float64, len(left)+len(right)-1), left, right, fs)
}

// TestIterativeDistributionBitIdentical asserts the pooled iterative CBA
// ladder reproduces the recursive implementation bit-for-bit across sizes
// 1..2048 — same merge tree, same convolution operand order, same code
// under every convolution — on one continuously reused Evaluator, so
// buffer reuse is exercised at every size transition (shrinking and
// growing).
func TestIterativeDistributionBitIdentical(t *testing.T) {
	src := randx.New(97)
	ev, fs := NewEvaluator(), fft.NewScratch()
	maxN := 2048
	if testing.Short() {
		maxN = 300
	}
	for n := 1; n <= maxN; n++ {
		rates := src.ErrorRates(n, 0.3, 0.2)
		want := recursiveDistribution(rates, fs)
		got := ev.distribution(rates)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d k=%d: %v != %v (not bit-identical)", n, k, got[k], want[k])
			}
		}
	}
}

// TestEvaluatorReuseBitIdentical asserts a reused Evaluator returns exactly
// the values a fresh one does, for both algorithms, across interleaved
// sizes — i.e. no state leaks between calls through the pooled buffers.
func TestEvaluatorReuseBitIdentical(t *testing.T) {
	src := randx.New(131)
	reused := NewEvaluator()
	sizes := []int{1, 513, 2, 1001, 17, 3, 700, 1, 256, 1025}
	for _, algo := range []Algorithm{DPAlgo, CBAAlgo, Auto} {
		for _, n := range sizes {
			rates := src.ErrorRates(n, 0.35, 0.2)
			want, err := NewEvaluator().Compute(rates, algo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Compute(rates, algo)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v n=%d: reused %v != fresh %v", algo, n, got, want)
			}
		}
	}
}

// TestEvaluatorMatchesPackageCompute asserts the package wrapper and the
// kernel agree bit-for-bit, and that ComputeValidated equals Compute on
// valid input.
func TestEvaluatorMatchesPackageCompute(t *testing.T) {
	src := randx.New(19)
	ev := NewEvaluator()
	for _, n := range []int{1, 5, 101, 513, 601} {
		rates := src.ErrorRates(n, 0.3, 0.15)
		for _, algo := range []Algorithm{Auto, DPAlgo, CBAAlgo} {
			pkg, err := Compute(rates, algo)
			if err != nil {
				t.Fatal(err)
			}
			checked, err := ev.Compute(rates, algo)
			if err != nil {
				t.Fatal(err)
			}
			unchecked, err := ev.ComputeValidated(rates, algo)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(pkg) != math.Float64bits(checked) ||
				math.Float64bits(pkg) != math.Float64bits(unchecked) {
				t.Fatalf("algo %v n=%d: package %v, Compute %v, ComputeValidated %v",
					algo, n, pkg, checked, unchecked)
			}
		}
	}
}

// TestEvaluatorErrors asserts the kernel validates like the package entry
// points.
func TestEvaluatorErrors(t *testing.T) {
	ev := NewEvaluator()
	if _, err := ev.Compute(nil, Auto); err != ErrEmptyJury {
		t.Fatalf("empty jury: %v", err)
	}
	if _, err := ev.ComputeValidated(nil, Auto); err != ErrEmptyJury {
		t.Fatalf("empty jury unchecked: %v", err)
	}
	if _, err := ev.Compute([]float64{1.5}, Auto); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if _, err := ev.Compute([]float64{0.2}, Algorithm(99)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// naiveSum is the uncompensated accumulation tailSum used before the
// Kahan hardening, kept for the drift comparison below.
func naiveSum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestTailSumCompensation builds an adversarial large-n tail — thousands
// of terms spanning many orders of magnitude — and checks the compensated
// tail sum lands within 1 ulp of an exact big.Float reference while the
// plain left-to-right sum it replaced drifts measurably further.
func TestTailSumCompensation(t *testing.T) {
	// A binomial-free adversarial PMF: geometric decay with alternating
	// magnitude jumps forces the running sum to absorb terms ~1e-16 of its
	// size, where uncompensated addition sheds a half-ulp per term.
	n := 20001
	pmf := make([]float64, n)
	for i := range pmf {
		pmf[i] = math.Exp(-0.001*float64(i)) * (1 + 0.5*math.Cos(float64(i)))
	}
	exact := new(big.Float).SetPrec(200)
	for _, v := range pmf {
		exact.Add(exact, new(big.Float).SetFloat64(v))
	}
	want, _ := exact.Float64()

	ulp := math.Nextafter(want, math.Inf(1)) - want
	kahan := pbdist.KahanSum(pmf)
	naive := naiveSum(pmf)
	kahanErr := math.Abs(kahan - want)
	naiveErr := math.Abs(naive - want)
	if kahanErr > ulp {
		t.Fatalf("compensated sum off by %g (> 1 ulp of %g)", kahanErr, want)
	}
	if naiveErr <= kahanErr {
		t.Fatalf("adversarial input not adversarial: naive err %g ≤ kahan err %g", naiveErr, kahanErr)
	}
	t.Logf("naive drift %g vs compensated %g (removed %.0f ulps)",
		naiveErr, kahanErr, (naiveErr-kahanErr)/ulp)
}
