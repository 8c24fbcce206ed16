package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func slicesAlmostEqual(t *testing.T, got, want []float64, eps float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if !almostEqual(got[i], want[i], eps) {
			t.Fatalf("index %d: got %g want %g", i, got[i], want[i])
		}
	}
}

// convolveNaive returns the schoolbook convolution of a and b in a fresh
// slice, or nil when either is empty: the reference the FFT path must
// match.
func convolveNaive(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	convolveNaiveInto(out, a, b)
	return out
}

// convolveFFT returns the FFT-path convolution of nonempty a and b,
// without ConvolveInto's size dispatch or clamping.
func convolveFFT(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	convolveFFTInto(out, a, b, NewScratch())
	return out
}

// convolve returns ConvolveInto's result for nonempty a and b in a fresh
// slice.
func convolve(a, b []float64) []float64 {
	return ConvolveInto(make([]float64, len(a)+len(b)-1), a, b, NewScratch())
}

func TestTransformKnownValues(t *testing.T) {
	// FFT of [1,1,1,1] is [4,0,0,0].
	a := []complex128{1, 1, 1, 1}
	Transform(a)
	want := []complex128{4, 0, 0, 0}
	for i := range a {
		if cmplx.Abs(a[i]-want[i]) > tol {
			t.Fatalf("index %d: got %v want %v", i, a[i], want[i])
		}
	}
}

func TestTransformImpulse(t *testing.T) {
	// FFT of the unit impulse is all ones.
	a := make([]complex128, 8)
	a[0] = 1
	Transform(a)
	for i := range a {
		if cmplx.Abs(a[i]-1) > tol {
			t.Fatalf("index %d: got %v want 1", i, a[i])
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			orig[i] = a[i]
		}
		Transform(a)
		Inverse(a)
		for i := range a {
			if cmplx.Abs(a[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d index %d: got %v want %v", n, i, a[i], orig[i])
			}
		}
	}
}

func TestTransformPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	Transform(make([]complex128, 3))
}

func TestTransformEmptyIsNoop(t *testing.T) {
	Transform(nil) // must not panic
	Inverse(nil)
}

func TestConvolveNaiveKnown(t *testing.T) {
	// (1 + 2x)(3 + 4x) = 3 + 10x + 8x².
	got := convolveNaive([]float64{1, 2}, []float64{3, 4})
	slicesAlmostEqual(t, got, []float64{3, 10, 8}, tol)
}

func TestConvolveNaiveIdentity(t *testing.T) {
	a := []float64{0.25, 0.5, 0.25}
	got := convolveNaive(a, []float64{1})
	slicesAlmostEqual(t, got, a, tol)
}

func TestConvolveEmpty(t *testing.T) {
	if got := convolveNaive(nil, []float64{1}); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
	if got := ConvolveInto(nil, []float64{1}, nil, NewScratch()); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
	if got := ConvolveInto(nil, nil, nil, NewScratch()); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

func TestConvolveFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pair := range [][2]int{{1, 1}, {2, 3}, {7, 9}, {64, 64}, {100, 1}, {1, 100}, {500, 301}} {
		a := make([]float64, pair[0])
		b := make([]float64, pair[1])
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		want := convolveNaive(a, b)
		got := convolveFFT(a, b)
		slicesAlmostEqual(t, got, want, 1e-8)
	}
}

func TestConvolvePreservesMass(t *testing.T) {
	// Convolution of two PMFs is a PMF: mass 1, entries ≥ 0.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 17, 200} {
		a := randomPMF(rng, n)
		b := randomPMF(rng, n+3)
		out := convolve(a, b)
		sum := 0.0
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative mass %g", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("mass %g, want 1", sum)
		}
	}
}

func randomPMF(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	sum := 0.0
	for i := range a {
		a[i] = rng.Float64()
		sum += a[i]
	}
	for i := range a {
		a[i] /= sum
	}
	return a
}

func TestConvolveCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		xs, ys = sanitize(xs, 40), sanitize(ys, 40)
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		ab := convolve(xs, ys)
		ba := convolve(ys, xs)
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if !almostEqual(ab[i], ba[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveAssociativeProperty(t *testing.T) {
	f := func(xs, ys, zs []float64) bool {
		xs, ys, zs = sanitize(xs, 12), sanitize(ys, 12), sanitize(zs, 12)
		if len(xs) == 0 || len(ys) == 0 || len(zs) == 0 {
			return true
		}
		left := convolve(convolve(xs, ys), zs)
		right := convolve(xs, convolve(ys, zs))
		if len(left) != len(right) {
			return false
		}
		for i := range left {
			if !almostEqual(left[i], right[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps arbitrary quick-generated floats into small bounded
// magnitudes so round-off comparisons stay meaningful.
func sanitize(xs []float64, maxLen int) []float64 {
	if len(xs) > maxLen {
		xs = xs[:maxLen]
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(math.Abs(x), 1))
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkConvolveNaive1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomPMF(rng, 1024)
	y := randomPMF(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convolveNaive(x, y)
	}
}

// BenchmarkConvolveFFT1024 times ConvolveInto's FFT path with the output
// and Scratch reused, as the jer kernel calls it.
func BenchmarkConvolveFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomPMF(rng, 1024)
	y := randomPMF(rng, 1024)
	out, fs := make([]float64, len(x)+len(y)-1), NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveInto(out, x, y, fs)
	}
}
