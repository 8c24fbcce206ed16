package pbdist_test

import (
	"fmt"

	"juryselect/internal/pbdist"
)

// The number of wrong voters among three jurors with heterogeneous error
// rates follows the Poisson–Binomial law; its upper tail at the majority
// threshold is the Jury Error Rate.
func ExampleDist_TailAtLeast() {
	var d pbdist.Dist
	for _, e := range []float64{0.2, 0.3, 0.3} {
		if err := d.Append(e); err != nil {
			panic(err)
		}
	}
	fmt.Printf("P(C>=2) = %.3f\n", d.TailAtLeast(2))
	// Output: P(C>=2) = 0.174
}

// Append and Pop maintain the exact distribution incrementally — the
// mechanism behind the exact OPT enumerator's depth-first search.
func ExampleDist_Pop() {
	var d pbdist.Dist
	_ = d.Append(0.2)
	_ = d.Append(0.5)
	before := d.TailAtLeast(1)
	_ = d.Append(0.9)
	_ = d.Pop() // back to {0.2, 0.5}
	fmt.Printf("restored=%v\n", d.TailAtLeast(1) == before)
	// Output: restored=true
}
