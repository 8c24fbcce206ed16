package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"juryselect/internal/jer"
	"juryselect/internal/memo"
	"juryselect/internal/randx"
)

// randomJuries draws n juries of the given size (deterministically).
func randomJuries(n, size int, seed int64) [][]float64 {
	src := randx.New(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = src.ErrorRates(size, 0.3, 0.15)
	}
	return out
}

// TestEvaluateAllMatchesSerial asserts the engine's values are
// byte-identical to a serial jer.Compute loop, for every worker count and
// with the cache both on and off.
func TestEvaluateAllMatchesSerial(t *testing.T) {
	juries := randomJuries(500, 11, 3)
	want := make([]float64, len(juries))
	for i, rates := range juries {
		v, err := jer.Compute(rates, jer.Auto)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	for _, workers := range []int{1, 2, 4, 16} {
		for _, cacheSize := range []int{-1, 0} {
			e := New(Options{Workers: workers, CacheSize: cacheSize})
			got := e.EvaluateAll(context.Background(), juries)
			if len(got) != len(juries) {
				t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(juries))
			}
			for i, r := range got {
				if r.Err != nil {
					t.Fatalf("workers=%d jury %d: %v", workers, i, r.Err)
				}
				if r.Index != i {
					t.Fatalf("workers=%d: result %d has Index %d", workers, i, r.Index)
				}
				if math.Float64bits(r.JER) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d cache=%d jury %d: JER %v != serial %v (not byte-identical)",
						workers, cacheSize, i, r.JER, want[i])
				}
			}
		}
	}
}

// TestEvaluateAllDeterministicAcrossRuns asserts two runs with different
// worker counts agree bit-for-bit. Run under -race this also exercises the
// worker pool for data races.
func TestEvaluateAllDeterministicAcrossRuns(t *testing.T) {
	juries := randomJuries(1000, 11, 7)
	a := New(Options{Workers: 8}).EvaluateAll(context.Background(), juries)
	b := New(Options{Workers: 3, CacheSize: -1}).EvaluateAll(context.Background(), juries)
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("jury %d: errs %v / %v", i, a[i].Err, b[i].Err)
		}
		if math.Float64bits(a[i].JER) != math.Float64bits(b[i].JER) {
			t.Fatalf("jury %d: %v != %v across worker counts", i, a[i].JER, b[i].JER)
		}
	}
}

// TestEvaluateCacheHits asserts the memo collapses duplicate multisets:
// the same jury in any member order is computed once. CacheMinJurySize is
// lowered so the tiny test juries are eligible for the memo.
func TestEvaluateCacheHits(t *testing.T) {
	e := New(Options{Workers: 1, CacheMinJurySize: -1})
	rates := []float64{0.1, 0.2, 0.3}
	perm := []float64{0.3, 0.1, 0.2}
	v1, err := e.Evaluate(rates)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.Evaluate(perm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Fatalf("permuted jury changed JER: %v vs %v", v1, v2)
	}
	st := e.Stats()
	if st.Evaluations != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 evaluation and 1 hit", st)
	}
}

// TestEvaluateAllSharedEngineComputesOnce asserts a batch full of
// duplicates performs only as many evaluations as there are distinct
// multisets, even with many workers racing on the same keys.
func TestEvaluateAllSharedEngineComputesOnce(t *testing.T) {
	distinct := randomJuries(20, 21, 11) // ≥ DefaultCacheMinJurySize
	var juries [][]float64
	for rep := 0; rep < 50; rep++ {
		juries = append(juries, distinct...)
	}
	e := New(Options{Workers: 8})
	res := e.EvaluateAll(context.Background(), juries)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := e.Stats(); st.Evaluations != int64(len(distinct)) {
		t.Fatalf("performed %d evaluations for %d distinct juries", st.Evaluations, len(distinct))
	}
}

// TestEvaluateConcurrentSameKey hammers Evaluate with one key from many
// goroutines; the in-flight coalescing must yield a single computation.
func TestEvaluateConcurrentSameKey(t *testing.T) {
	e := New(Options{Workers: 8, CacheMinJurySize: -1})
	rates := []float64{0.25, 0.35, 0.45}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Evaluate(rates); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Evaluations != 1 {
		t.Fatalf("%d evaluations for one key, want 1", st.Evaluations)
	}
}

// TestSmallJuryCacheBypass asserts juries below the threshold are
// recomputed rather than memoized: for them the DP is cheaper than the
// lookup, so a repeat evaluation must count as an evaluation, not a hit.
func TestSmallJuryCacheBypass(t *testing.T) {
	e := New(Options{Workers: 1}) // default CacheMinJurySize
	rates := []float64{0.1, 0.2, 0.3}
	for i := 0; i < 2; i++ {
		if _, err := e.Evaluate(rates); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evaluations != 2 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 direct evaluations for a sub-threshold jury", st)
	}
}

// TestEvaluateAllInvalidRates asserts per-jury errors are reported in
// place without failing the rest of the batch.
func TestEvaluateAllInvalidRates(t *testing.T) {
	juries := [][]float64{{0.1, 0.2, 0.3}, {0.5, 1.5, 0.5}, {}, {0.4}}
	res := New(Options{Workers: 4}).EvaluateAll(context.Background(), juries)
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("valid juries errored: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil {
		t.Fatal("out-of-range rate not reported")
	}
	if res[2].Err == nil {
		t.Fatal("empty jury not reported")
	}
}

// TestEvaluateAllCancellation asserts a cancelled context marks unclaimed
// juries with the context error while the slice stays fully populated.
func TestEvaluateAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	juries := randomJuries(200, 9, 13)
	res := New(Options{Workers: 4}).EvaluateAll(ctx, juries)
	if len(res) != len(juries) {
		t.Fatalf("got %d results, want %d", len(res), len(juries))
	}
	cancelled := 0
	for _, r := range res {
		if r.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no jury observed the cancelled context")
	}
}

// TestCanonicalizeOrderInvariance asserts the memo key depends only on
// the multiset of rates — with no sorting on the request path — and that
// the canonical evaluation order is sorted.
func TestCanonicalizeOrderInvariance(t *testing.T) {
	k1 := hashMultiset([]float64{0.1, 0.2, 0.3})
	k2 := hashMultiset([]float64{0.3, 0.2, 0.1})
	if k1 != k2 {
		t.Fatal("key not order-invariant")
	}
	s1 := append([]float64(nil), canonicalize([]float64{0.3, 0.1, 0.2}, &evalScratch{})...)
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if s1[i] != want {
			t.Fatalf("canonical order = %v, want sorted", s1)
		}
	}
	if hashMultiset([]float64{0.1, 0.2}) == hashMultiset([]float64{0.1, 0.2, 0.2}) {
		t.Fatal("multiset and its extension collided")
	}
	// The commutative reduction must still separate multisets whose plain
	// (unmixed) sums coincide: {a,a,b} vs {a,b,b} vs {a+b split differently}.
	if hashMultiset([]float64{0.1, 0.1, 0.4}) == hashMultiset([]float64{0.2, 0.2, 0.2}) {
		t.Fatal("equal-sum multisets collided")
	}
}

// TestHashMultisetDistribution asserts distinct multisets spread across
// all memo shards (picked by the key's top memo.ShardBits bits) and collide
// on neither key nor shard in a modest sample — the property the sharded
// memo's contention win rests on.
func TestHashMultisetDistribution(t *testing.T) {
	src := randx.New(31)
	seen := make(map[uint64]bool)
	var perShard [memo.Shards]int
	const samples = 4096
	for i := 0; i < samples; i++ {
		key := hashMultiset(src.ErrorRates(1+src.Intn(40), 0.3, 0.15))
		if seen[key] {
			t.Fatalf("sample %d: 64-bit key collision", i)
		}
		seen[key] = true
		perShard[key>>(64-memo.ShardBits)]++
	}
	for sh, n := range perShard {
		// Expected 256 per shard; a 4× imbalance would mean broken mixing.
		if n < samples/memo.Shards/4 || n > samples/memo.Shards*4 {
			t.Fatalf("shard %d got %d of %d keys — top bits poorly mixed", sh, n, samples)
		}
	}
}

// TestMemoValueIsCanonical asserts memo-served values are a pure function
// of the multiset: every permutation of a memo-eligible jury returns
// byte-identically jer.Compute of the sorted rates, no matter which
// permutation was evaluated first.
func TestMemoValueIsCanonical(t *testing.T) {
	rates := randx.New(5).ErrorRates(21, 0.3, 0.15)
	reversed := make([]float64, len(rates))
	for i, r := range rates {
		reversed[len(rates)-1-i] = r
	}
	sorted := canonicalize(rates, &evalScratch{})
	want, err := jer.Compute(sorted, jer.Auto)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the memo with the *reversed* ordering first: the cached value
	// must still be the canonical one.
	e := New(Options{Workers: 4})
	for _, perm := range [][]float64{reversed, rates, sorted} {
		got, err := e.Evaluate(perm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("permutation returned %v, want canonical %v", got, want)
		}
	}
	if st := e.Stats(); st.Evaluations != 1 || st.CacheHits != 2 {
		t.Fatalf("stats = %+v, want 1 evaluation + 2 hits", st)
	}
}

func TestEvaluateContext(t *testing.T) {
	e := New(Options{})
	rates := randomJuries(1, 9, 5)[0]
	want, err := e.Evaluate(rates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvaluateContext(context.Background(), rates)
	if err != nil || got != want {
		t.Fatalf("EvaluateContext = %g/%v, want %g", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateContext(ctx, rates); err != context.Canceled {
		t.Fatalf("cancelled context error = %v, want context.Canceled", err)
	}
}

func TestInflightStat(t *testing.T) {
	e := New(Options{Workers: 2})
	if got := e.Stats().Inflight; got != 0 {
		t.Fatalf("idle inflight = %d", got)
	}
	// Run one long evaluation in the background and poll the gauge up:
	// it must read 1 while the kernel runs and fall back to 0 after.
	// The jury is large enough that the kernel outlives the scheduler's
	// ~10ms preemption quantum, so on a single-CPU machine the polling
	// loop is guaranteed slices of the evaluation window; Gosched (not
	// Sleep) hands the processor over eagerly.
	rates := randomJuries(1, 40001, 7)[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Evaluate(rates); err != nil {
			t.Error(err)
		}
	}()
	sawInflight := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawInflight && time.Now().Before(deadline) {
		sawInflight = e.Stats().Inflight == 1
		runtime.Gosched()
	}
	<-done
	if !sawInflight {
		t.Error("inflight gauge never rose during an evaluation")
	}
	if got := e.Stats().Inflight; got != 0 {
		t.Errorf("inflight after evaluation = %d, want 0", got)
	}
}

// warmEngine returns an engine whose memo holds the one 101-juror jury
// it returns, so evaluating that jury is a memo hit: validate, multiset
// hash, shard lock, map lookup and LRU bump.
func warmEngine(tb testing.TB) (*Engine, []float64) {
	e := New(Options{Workers: 1})
	rates := randomJuries(1, 101, 3)[0]
	if _, err := e.Evaluate(rates); err != nil {
		tb.Fatal(err)
	}
	return e, rates
}

// TestEvaluateMemoHitAllocations: a warm memo hit allocates nothing.
func TestEvaluateMemoHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	e, rates := warmEngine(t)
	got := testing.AllocsPerRun(200, func() {
		if _, err := e.Evaluate(rates); err != nil {
			t.Fatal(err)
		}
	})
	if st := e.Stats(); st.Evaluations != 1 {
		t.Fatalf("warm loop computed %d times, want only the priming evaluation", st.Evaluations)
	}
	if got != 0 {
		t.Fatalf("memo hit allocates %.0f/op, want 0", got)
	}
}

func BenchmarkEvaluateMemoHit(b *testing.B) {
	e, rates := warmEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(rates); err != nil {
			b.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evaluations != 1 {
		b.Fatalf("warm loop computed %d times, want only the priming evaluation", st.Evaluations)
	}
}
