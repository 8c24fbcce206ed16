package jer

import "juryselect/internal/pbdist"

// CurvePoint is the JER of one odd prefix of a juror ordering.
type CurvePoint struct {
	// Size is the (odd) jury size.
	Size int
	// JER is the exact Jury Error Rate of the first Size jurors.
	JER float64
}

// PrefixCurve returns JER for every odd prefix of rates, in one O(N²)
// incremental pass. With rates sorted ascending this is exactly the
// objective landscape AltrALG searches (Lemma 3 guarantees each prefix is
// the optimal jury of its size), so the curve exposes the size-vs-quality
// trade-off behind Figure 3(a): callers can see how flat the optimum is
// and how quickly quality degrades away from it.
func PrefixCurve(rates []float64) ([]CurvePoint, error) {
	if len(rates) == 0 {
		return nil, ErrEmptyJury
	}
	if err := pbdist.ValidateRates(rates); err != nil {
		return nil, err
	}
	sweep := NewSweep()
	curve := make([]CurvePoint, 0, (len(rates)+1)/2)
	for n := 1; n <= len(rates); n += 2 {
		for sweep.N() < n {
			if err := sweep.Extend(rates[sweep.N()]); err != nil {
				return nil, err
			}
		}
		v, err := sweep.JER()
		if err != nil {
			return nil, err
		}
		curve = append(curve, CurvePoint{Size: n, JER: v})
	}
	return curve, nil
}
