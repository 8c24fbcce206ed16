package jer_test

import (
	"fmt"

	"juryselect/internal/jer"
)

// The three jurors C, D, E of the paper's motivation example fail with
// probability 0.174 under majority voting.
func ExampleCompute() {
	v, err := jer.Compute([]float64{0.2, 0.3, 0.3}, jer.Auto)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.3f\n", v)
	// Output: 0.174
}

// The Paley–Zygmund bound is usable only when the expected number of wrong
// voters reaches the majority threshold.
func ExampleLowerBound() {
	_, usableReliable := jer.LowerBound([]float64{0.1, 0.1, 0.1})
	bound, usableNoisy := jer.LowerBound([]float64{0.9, 0.9, 0.9})
	fmt.Printf("reliable usable=%v noisy usable=%v bound>0=%v\n",
		usableReliable, usableNoisy, bound > 0)
	// Output: reliable usable=false noisy usable=true bound>0=true
}

// PrefixCurve exposes the full size-vs-JER landscape of Figure 3(a)'s
// optimization: for the motivation example the best odd prefix is size 5.
func ExamplePrefixCurve() {
	rates := []float64{0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4} // sorted ascending
	curve, err := jer.PrefixCurve(rates)
	if err != nil {
		panic(err)
	}
	best := curve[0]
	for _, p := range curve[1:] {
		if p.JER < best.JER {
			best = p
		}
	}
	fmt.Printf("best size %d at %.5f\n", best.Size, best.JER)
	// Output: best size 5 at 0.07036
}
