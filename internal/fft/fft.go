// Package fft implements the fast Fourier transform and the polynomial
// (probability-vector) convolutions that back the paper's Convolution-Based
// Algorithm (CBA, Algorithm 2) for computing the Jury Error Rate.
//
// The package offers two entry points:
//
//   - Transform / Inverse: radix-2 iterative complex FFT.
//   - ConvolveInto: size-adaptive convolution — the O(len(a)·len(b))
//     schoolbook method below a crossover, the FFT method above it —
//     writing into a caller-provided output slice with all FFT
//     temporaries drawn from a reusable Scratch arena, so a steady-state
//     caller (the jer.Evaluator kernel) allocates nothing.
//
// The convolutions operate on non-negative real vectors (probability mass
// functions of wrong-vote counts); ConvolveInto clamps tiny negative values
// that arise from floating-point round-off back to zero so downstream code
// can rely on PMF non-negativity.
package fft

import "math"

// convolveCrossover is the total output length above which FFT convolution
// beats the schoolbook method. Determined empirically on amd64; correctness
// does not depend on the exact value.
const convolveCrossover = 128

// Transform computes the in-place forward FFT of a. The length of a must be
// a power of two; Transform panics otherwise.
func Transform(a []complex128) { fftInPlace(a, false) }

// Inverse computes the in-place inverse FFT of a, including the 1/n scaling.
// The length of a must be a power of two; Inverse panics otherwise.
func Inverse(a []complex128) {
	fftInPlace(a, true)
	n := complex(float64(len(a)), 0)
	for i := range a {
		a[i] /= n
	}
}

func fftInPlace(a []complex128, invert bool) {
	n := len(a)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if invert {
			angle = -angle
		}
		wl := complex(math.Cos(angle), math.Sin(angle))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Scratch is a reusable arena for the complex temporaries of the FFT
// convolution path. A zero Scratch is ready to use; buffers grow to the
// largest transform seen and are then reused, so a long-lived Scratch makes
// ConvolveInto allocation-free in steady state. A Scratch is not safe for
// concurrent use; give each worker its own (NewScratch).
type Scratch struct {
	buf  []complex128 // packed input spectrum fa = a + i·b
	prod []complex128 // pointwise spectral product
}

// NewScratch returns an empty arena. Buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// complexPair returns two length-n complex buffers backed by the arena. The
// first is zeroed (it is filled additively by the packing step); the second
// is returned dirty because the pointwise product overwrites every entry.
func (s *Scratch) complexPair(n int) (buf, prod []complex128) {
	if cap(s.buf) < n {
		s.buf = make([]complex128, n)
		s.prod = make([]complex128, n)
	}
	buf, prod = s.buf[:n], s.prod[:n]
	clear(buf)
	return buf, prod
}

// convolveNaiveInto accumulates the schoolbook convolution of a and b into
// out, which must be zeroed, have length len(a)+len(b)-1 and alias neither
// input.
func convolveNaiveInto(out, a, b []float64) {
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
}

// convolveFFTInto computes the FFT convolution of a and b into out, drawing
// every complex temporary from s. out must have length len(a)+len(b)-1 and
// alias neither input.
func convolveFFTInto(out, a, b []float64, s *Scratch) {
	n := nextPow2(len(out))
	buf, prod := s.complexPair(n)
	// Pack both real sequences into one complex buffer: fa = a + i·b.
	// One forward transform then yields the spectra of both via symmetry,
	// halving the transform count relative to the textbook formulation.
	for i, v := range a {
		buf[i] = complex(v, 0)
	}
	for i, v := range b {
		buf[i] += complex(0, v)
	}
	Transform(buf)
	// With F = FFT(a + i·b): A[k] = (F[k] + conj(F[n-k]))/2,
	// B[k] = (F[k] - conj(F[n-k]))/(2i). Multiply spectra pointwise.
	for k := 0; k < n; k++ {
		km := (n - k) & (n - 1)
		fk := buf[k]
		fkm := cconj(buf[km])
		ak := (fk + fkm) / 2
		bk := (fk - fkm) / complex(0, 2)
		prod[k] = ak * bk
	}
	Inverse(prod)
	for i := range out {
		out[i] = real(prod[i])
	}
}

func cconj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// ConvolveInto writes the linear convolution of a and b into out, which
// must have length len(a)+len(b)-1 and alias neither input, and returns
// out; either input being empty yields nil. It uses the schoolbook method
// below a crossover size and the FFT method above it, clamping the FFT
// path's outputs to be non-negative: inputs are probability vectors, so
// any negative value is floating-point noise. FFT temporaries come from s,
// which must not be nil, so a caller holding its own Scratch and output
// buffer performs no allocation.
func ConvolveInto(out, a, b []float64, s *Scratch) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if len(out) != len(a)+len(b)-1 {
		panic("fft: ConvolveInto output length must be len(a)+len(b)-1")
	}
	if len(a)+len(b)-1 < convolveCrossover || len(a) < 8 || len(b) < 8 {
		clear(out)
		convolveNaiveInto(out, a, b)
		return out
	}
	convolveFFTInto(out, a, b, s)
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		}
	}
	return out
}
