package jer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestPrefixCurveMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rates := make([]float64, 41)
	for i := range rates {
		rates[i] = 0.02 + 0.9*rng.Float64()
	}
	curve, err := PrefixCurve(rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 21 {
		t.Fatalf("curve has %d points, want 21", len(curve))
	}
	for _, p := range curve {
		if p.Size%2 != 1 {
			t.Fatalf("even size %d on curve", p.Size)
		}
		want, err := Compute(rates[:p.Size], DPAlgo)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.JER-want) > 1e-9 {
			t.Fatalf("size %d: curve %.12f vs direct %.12f", p.Size, p.JER, want)
		}
	}
}

func TestPrefixCurveMotivationExample(t *testing.T) {
	// Sorted rates of the motivation example: curve must reproduce the
	// Table 2 odd-prefix values with the minimum at size 5.
	rates := []float64{0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4}
	curve, err := PrefixCurve(rates)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{1: 0.1, 3: 0.072, 5: 0.07036, 7: 0.085248}
	for _, p := range curve {
		if w, ok := want[p.Size]; ok && math.Abs(p.JER-w) > 1e-9 {
			t.Errorf("size %d: %.6f, want %.6f", p.Size, p.JER, w)
		}
	}
	best := curve[0]
	for _, p := range curve[1:] {
		if p.JER < best.JER {
			best = p
		}
	}
	if best.Size != 5 || math.Abs(best.JER-0.07036) > 1e-9 {
		t.Errorf("curve minimum = %+v, want size 5 / 0.07036", best)
	}
}

func TestPrefixCurveValidation(t *testing.T) {
	if _, err := PrefixCurve(nil); !errors.Is(err, ErrEmptyJury) {
		t.Error("expected ErrEmptyJury")
	}
	if _, err := PrefixCurve([]float64{1.5}); err == nil {
		t.Error("expected error for invalid rate")
	}
}
