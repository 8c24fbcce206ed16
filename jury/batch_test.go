package jury_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"juryselect/internal/core"
	"juryselect/internal/randx"
	"juryselect/jury"
)

func batchJuries(n, size int, seed int64) [][]jury.Juror {
	src := randx.New(seed)
	out := make([][]jury.Juror, n)
	for i := range out {
		rates := src.ErrorRates(size, 0.3, 0.15)
		j := make([]jury.Juror, size)
		for k := range j {
			j[k] = jury.Juror{ErrorRate: rates[k]}
		}
		out[i] = j
	}
	return out
}

// TestEvaluateAllByteIdenticalToSerial is the engine's core contract: the
// concurrent batch returns, in input order, exactly the values a serial
// jury.JER loop produces — byte-identical, for every worker count. Run
// with -race this also exercises the worker pool for data races.
func TestEvaluateAllByteIdenticalToSerial(t *testing.T) {
	juries := batchJuries(300, 11, 5)
	for _, workers := range []int{1, 2, 7, 16} {
		res := jury.NewEngine(jury.BatchOptions{Workers: workers}).EvaluateAll(context.Background(), juries)
		if len(res) != len(juries) {
			t.Fatalf("workers=%d: %d results for %d juries", workers, len(res), len(juries))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d jury %d: %v", workers, i, r.Err)
			}
			if r.Index != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, r.Index)
			}
			rates := make([]float64, len(juries[i]))
			for k, j := range juries[i] {
				rates[k] = j.ErrorRate
			}
			want, err := jury.JER(rates)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(r.JER) != math.Float64bits(want) {
				t.Fatalf("workers=%d jury %d: batch %v != serial %v", workers, i, r.JER, want)
			}
		}
	}
}

// TestEngineCacheAcrossCalls asserts a shared engine memoizes juries
// across batches and across member orderings.
func TestEngineCacheAcrossCalls(t *testing.T) {
	e := jury.NewEngine(jury.BatchOptions{Workers: 4})
	juries := batchJuries(50, 21, 8) // above the memo's small-jury bypass
	ctx := context.Background()
	if res := e.EvaluateAll(ctx, juries); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	first := e.Stats()
	if res := e.EvaluateAll(ctx, juries); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	st := e.Stats()
	if st.Evaluations != first.Evaluations {
		t.Fatalf("second batch recomputed: %d evaluations, want %d", st.Evaluations, first.Evaluations)
	}
	if st.CacheHits < int64(len(juries)) {
		t.Fatalf("only %d cache hits for a fully repeated batch of %d", st.CacheHits, len(juries))
	}
}

// TestEvaluateAllEmptyAndInvalid covers edge inputs through the public
// wrapper.
func TestEvaluateAllEmptyAndInvalid(t *testing.T) {
	if res := jury.EvaluateAll(context.Background(), nil); len(res) != 0 {
		t.Fatalf("nil input produced %d results", len(res))
	}
	res := jury.EvaluateAll(context.Background(), [][]jury.Juror{
		{{ErrorRate: 0.2}},
		{},
	})
	if res[0].Err != nil {
		t.Fatalf("valid jury errored: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("empty jury did not error")
	}
}

// TestJERContext: same value as JER, and the EvaluateAll cancellation
// contract for single evaluations.
func TestJERContext(t *testing.T) {
	eng := jury.NewEngine(jury.BatchOptions{})
	rates := []float64{0.1, 0.2, 0.3}
	want, err := eng.JER(rates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.JERContext(context.Background(), rates)
	if err != nil || got != want {
		t.Fatalf("JERContext = %g/%v, want %g", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.JERContext(ctx, rates); err != context.Canceled {
		t.Fatalf("cancelled JERContext error = %v, want context.Canceled", err)
	}
}

// TestSelectAltruisticSnapshotMatchesSolver: the no-revalidation snapshot
// path selects the same jury at the same JER as the validated solvers.
func TestSelectAltruisticSnapshotMatchesSolver(t *testing.T) {
	for _, n := range []int{1, 2, 9, 40} {
		cands := batchJuries(1, n, int64(100+n))[0]
		for i := range cands {
			cands[i].ID = string(rune('a' + i%26))
		}
		want, err := jury.SelectAltruistic(cands)
		if err != nil {
			t.Fatal(err)
		}
		eng := jury.NewEngine(jury.BatchOptions{})
		got, err := eng.SelectAltruisticSnapshot(context.Background(), core.SortedByErrorRate(cands))
		if err != nil {
			t.Fatal(err)
		}
		if got.JER != want.JER || got.Size() != want.Size() {
			t.Errorf("n=%d: snapshot %g/%d vs solver %g/%d",
				n, got.JER, got.Size(), want.JER, want.Size())
		}
	}
}

func TestSelectAltruisticSnapshotCancellation(t *testing.T) {
	eng := jury.NewEngine(jury.BatchOptions{})
	sorted := core.SortedByErrorRate(batchJuries(1, 31, 9)[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SelectAltruisticSnapshot(ctx, sorted); err != context.Canceled {
		t.Fatalf("cancelled snapshot selection error = %v", err)
	}
	if _, err := eng.SelectAltruisticSnapshot(context.Background(), nil); err != jury.ErrNoCandidates {
		t.Fatalf("empty snapshot error = %v", err)
	}
}

// TestSelectParallelBudgetedMatchesSerial runs a budget sweep in parallel,
// one goroutine per budget, on one shared engine, as concurrent pay
// selects share juryd's. Each memo-fronted greedy returns the jury the
// plain SelectBudgeted returns (memo-served evaluations run in canonical
// member order, so JER values may drift by float round-off), and a second
// parallel sweep returns the first one's bits with its repeated
// sub-juries served from the memo.
func TestSelectParallelBudgetedMatchesSerial(t *testing.T) {
	src := randx.New(44)
	rates := src.ErrorRates(100, 0.3, 0.1)
	costs := src.Requirements(100, 0.3, 0.2)
	cands := make([]jury.Juror, 100)
	for i := range cands {
		cands[i] = jury.Juror{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), ErrorRate: rates[i], Cost: costs[i]}
	}
	budgets := []float64{1, 2, 3, 6, 8}
	eng := jury.NewEngine(jury.BatchOptions{})
	sweep := func() []jury.Selection {
		out := make([]jury.Selection, len(budgets))
		errs := make([]error, len(budgets))
		var wg sync.WaitGroup
		for i, budget := range budgets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = eng.SelectBudgetedContext(context.Background(), cands, budget)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	first := sweep()
	var largest int
	for i, budget := range budgets {
		serial, err := jury.SelectBudgeted(cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		got := first[i]
		if math.Abs(serial.JER-got.JER) > 1e-12*serial.JER || !slices.Equal(serial.IDs(), got.IDs()) {
			t.Fatalf("budget %g: %v/%v vs %v/%v", budget, serial.JER, serial.IDs(), got.JER, got.IDs())
		}
		largest = max(largest, got.Size())
	}
	// Juries below 16 jurors bypass the memo, so the sweep must reach it.
	if largest < 16 {
		t.Fatalf("largest jury %d: the sweep never reaches the memo threshold", largest)
	}
	hits := eng.Stats().CacheHits
	for i, got := range sweep() {
		if math.Float64bits(got.JER) != math.Float64bits(first[i].JER) || !slices.Equal(got.IDs(), first[i].IDs()) {
			t.Fatalf("budget %g: repeated sweep %v/%v vs %v/%v", budgets[i], got.JER, got.IDs(), first[i].JER, first[i].IDs())
		}
	}
	if eng.Stats().CacheHits == hits {
		t.Fatal("repeated budget sweep produced no cache hits; the memo is not being consulted")
	}
}

// TestSelectBudgetedContextMatchesSerial: the ctx-aware budgeted greedy
// agrees with the plain solver at every budget of a sweep, a shared
// engine turns the sweep's repeated sub-juries into memo hits at the
// default threshold, and cancellation is honoured.
func TestSelectBudgetedContextMatchesSerial(t *testing.T) {
	src := randx.New(21)
	cands := make([]jury.Juror, 41)
	rates := src.ErrorRates(len(cands), 0.3, 0.15)
	for i := range cands {
		cands[i] = jury.Juror{ID: string(rune('A' + i%26)), ErrorRate: rates[i], Cost: 0.05 + 0.1*float64(i%5)}
	}
	eng := jury.NewEngine(jury.BatchOptions{})
	var largest int
	for _, budget := range []float64{1.2, 4, 5, 6} {
		want, err := jury.SelectBudgeted(cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.SelectBudgetedContext(context.Background(), cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		// The engine memo evaluates in canonical order: values may differ
		// in the last ulp, the selected jury only on sub-round-off ties.
		if got.Size() != want.Size() || math.Abs(got.JER-want.JER) > 1e-12 {
			t.Errorf("budget %g: context greedy %g/%d vs serial %g/%d",
				budget, got.JER, got.Size(), want.JER, want.Size())
		}
		largest = max(largest, got.Size())
	}
	// Juries below 16 jurors bypass the memo, so the sweep must reach it.
	if largest < 16 {
		t.Fatalf("largest jury %d: the sweep never reaches the memo threshold", largest)
	}
	if hits := eng.Stats().CacheHits; hits == 0 {
		t.Fatal("budget sweep produced no cache hits; the memo is not being consulted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SelectBudgetedContext(ctx, cands, 1.2); err != context.Canceled {
		t.Fatalf("cancelled budgeted selection error = %v", err)
	}
}

// TestEngineStatsSurface: Stats counts one evaluation and one hit for a
// repeated 17-juror jury and settles to zero inflight.
func TestEngineStatsSurface(t *testing.T) {
	eng := jury.NewEngine(jury.BatchOptions{})
	rates := []float64{0.1, 0.2, 0.3, 0.25, 0.15, 0.35, 0.12, 0.22, 0.28, 0.31, 0.19, 0.24, 0.26, 0.14, 0.33, 0.29, 0.21}
	if _, err := eng.JER(rates); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.JER(rates); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Evaluations != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 evaluation + 1 hit", st)
	}
	if st.Inflight != 0 {
		t.Errorf("idle inflight = %d", st.Inflight)
	}
}

// TestSelectExactContext: the same jury and JER bits as SelectExact at
// every engine worker count, and cancellation aborts the enumeration with
// ctx.Err().
func TestSelectExactContext(t *testing.T) {
	cands := batchJuries(1, 14, 77)[0]
	for i := range cands {
		cands[i].ID = string(rune('A' + i))
		cands[i].Cost = 0.1 + 0.05*float64(i%4)
	}
	want, err := jury.SelectExact(cands, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		eng := jury.NewEngine(jury.BatchOptions{Workers: workers})
		got, err := eng.SelectExactContext(context.Background(), cands, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.JER) != math.Float64bits(want.JER) || !slices.Equal(got.IDs(), want.IDs()) {
			t.Errorf("workers=%d: context exact %g/%v vs plain %g/%v", workers, got.JER, got.IDs(), want.JER, want.IDs())
		}
	}
	eng := jury.NewEngine(jury.BatchOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SelectExactContext(ctx, cands, 1.0); err != context.Canceled {
		t.Fatalf("cancelled exact enumeration error = %v", err)
	}
}
