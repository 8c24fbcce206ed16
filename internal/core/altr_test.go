package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"juryselect/internal/jer"
	"juryselect/internal/randx"
)

func TestSelectAltrMotivationExample(t *testing.T) {
	// From Table 2 the best jury over A–G is {A,B,C,D,E} with JER 0.07036:
	// size 5 beats size 3 (0.072) and size 7 (0.085248).
	sel, err := SelectAltr(figure1(), AltrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 5 {
		t.Fatalf("selected size %d (%v), want 5", sel.Size(), sel.IDs())
	}
	if !almostEqual(sel.JER, 0.07036, 1e-9) {
		t.Fatalf("JER = %.6f, want 0.07036", sel.JER)
	}
	ids := map[string]bool{}
	for _, id := range sel.IDs() {
		ids[id] = true
	}
	for _, want := range []string{"A", "B", "C", "D", "E"} {
		if !ids[want] {
			t.Errorf("juror %s missing from %v", want, sel.IDs())
		}
	}
}

func TestSelectAltrVariantsAgree(t *testing.T) {
	src := randx.New(101)
	for trial := 0; trial < 20; trial++ {
		n := 3 + src.Intn(60)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{ID: string(rune('a' + i%26)), ErrorRate: src.TruncNormal(0.4, 0.25, 0, 1)}
		}
		base, err := SelectAltr(cands, AltrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []AltrOptions{
			{UseLowerBound: true},
			{Incremental: true},
			{Incremental: true, UseLowerBound: true},
			{Algorithm: jer.CBAAlgo},
			{Algorithm: jer.DPAlgo, UseLowerBound: true},
		} {
			got, err := SelectAltr(cands, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got.JER, base.JER, 1e-9) {
				t.Fatalf("trial %d opts %+v: JER %.12f != base %.12f", trial, opts, got.JER, base.JER)
			}
			if got.Size() != base.Size() {
				t.Fatalf("trial %d opts %+v: size %d != base %d", trial, opts, got.Size(), base.Size())
			}
		}
	}
}

// SelectAltr must be exactly optimal: verify against brute force over all
// odd subsets for small candidate sets. This is the strongest check of
// Lemma 3 (prefix optimality) end to end.
func TestSelectAltrIsOptimalBruteForce(t *testing.T) {
	src := randx.New(55)
	for trial := 0; trial < 15; trial++ {
		n := 3 + src.Intn(9) // up to 11 candidates: 2^11 subsets
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{ID: string(rune('a' + i)), ErrorRate: src.TruncNormal(0.5, 0.3, 0, 1)}
		}
		sel, err := SelectAltr(cands, AltrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: AltrM is PayM with infinite budget.
		opt, err := SelectOpt(context.Background(), cands, 1e18, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(sel.JER, opt.JER, 1e-9) {
			t.Fatalf("trial %d: AltrALG %.12f vs brute force %.12f (sizes %d vs %d)",
				trial, sel.JER, opt.JER, sel.Size(), opt.Size())
		}
	}
}

func TestSelectAltrSingleCandidate(t *testing.T) {
	sel, err := SelectAltr([]Juror{{ID: "solo", ErrorRate: 0.3}}, AltrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 1 || !almostEqual(sel.JER, 0.3, 1e-12) {
		t.Fatalf("got size %d JER %g", sel.Size(), sel.JER)
	}
}

func TestSelectAltrOddSizeAlways(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.New(seed)
		n := 1 + src.Intn(40)
		cands := make([]Juror, n)
		for i := range cands {
			cands[i] = Juror{ErrorRate: src.TruncNormal(0.5, 0.3, 0, 1)}
		}
		sel, err := SelectAltr(cands, AltrOptions{Incremental: true})
		return err == nil && sel.Size()%2 == 1 && sel.Size() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAltrReliableCandsPreferLargeJuries(t *testing.T) {
	// With uniformly reliable candidates (ε < 0.5), adding jurors only
	// helps, so the optimum takes (nearly) everyone. This mirrors the left
	// shoulder of Figure 3(a).
	cands := make([]Juror, 51)
	for i := range cands {
		cands[i] = Juror{ErrorRate: 0.3}
	}
	sel, err := SelectAltr(cands, AltrOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 51 {
		t.Fatalf("homogeneous reliable candidates: size %d, want 51", sel.Size())
	}
}

func TestSelectAltrErrorProneCandsPreferTinyJuries(t *testing.T) {
	// With uniformly unreliable candidates (ε > 0.5) every extra pair
	// hurts, so the optimum is a single juror: "the hands of the few"
	// regime on the right side of Figure 3(a).
	cands := make([]Juror, 51)
	for i := range cands {
		cands[i] = Juror{ErrorRate: 0.7}
	}
	sel, err := SelectAltr(cands, AltrOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 1 {
		t.Fatalf("homogeneous unreliable candidates: size %d, want 1", sel.Size())
	}
}

func TestSelectAltrMaxSize(t *testing.T) {
	cands := make([]Juror, 21)
	for i := range cands {
		cands[i] = Juror{ErrorRate: 0.2}
	}
	sel, err := SelectAltr(cands, AltrOptions{MaxSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size() != 7 {
		t.Fatalf("MaxSize=7 ignored: size %d", sel.Size())
	}
}

func TestSelectAltrEmpty(t *testing.T) {
	if _, err := SelectAltr(nil, AltrOptions{}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestSelectAltrPruningCounts(t *testing.T) {
	// With very unreliable candidates the bound becomes usable and should
	// prune at least one size; evaluations + pruned must cover every size.
	src := randx.New(9)
	cands := make([]Juror, 101)
	for i := range cands {
		cands[i] = Juror{ErrorRate: src.TruncNormal(0.8, 0.05, 0, 1)}
	}
	sel, err := SelectAltr(cands, AltrOptions{UseLowerBound: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := (101 + 1) / 2
	if sel.Evaluations+sel.Pruned != sizes {
		t.Fatalf("evaluations %d + pruned %d != sizes %d", sel.Evaluations, sel.Pruned, sizes)
	}
	if sel.Pruned == 0 {
		t.Error("expected at least one pruned size for unreliable candidates")
	}
}
