// Package engine is the concurrent batch-evaluation engine for Jury Error
// Rates: given many candidate juries, it shards the exact JER computations
// of Section 3.1 (Algorithm 1 DP and Algorithm 2 FFT convolution) across a
// bounded worker pool and memoizes results in an LRU cache keyed on the
// jury's error-rate multiset, so the same jury — however its members are
// ordered, and however many callers ask — is computed exactly once.
//
// The engine is the batch-scoring substrate the ROADMAP's production
// service needs: selection solvers, the experiment harnesses and the CLI
// binaries all evaluate thousands of candidate juries per request, and
// every one of those evaluations is independent. Workloads like "score
// each candidate answerer set for an incoming task" (cf. Mahmud et al.,
// Optimizing the Selection of Strangers) map directly onto EvaluateAll.
//
// Guarantees:
//
//   - Deterministic ordering: EvaluateAll(ctx, sets)[i] is always the
//     result for sets[i], regardless of worker count or scheduling.
//   - Deterministic values: with the memo disabled (or below its size
//     threshold) every jury is evaluated by the same deterministic
//     jer.Compute on the given member order, so values are byte-identical
//     to a serial loop. Memo-served values are computed on the canonical
//     (sorted) member order instead — jer.Compute's rounding is
//     order-sensitive in the last ulp, and canonicalizing makes the value
//     a pure function of the multiset, byte-stable across member orders,
//     worker counts, schedules and runs (a permuted duplicate would
//     otherwise be served whichever ordering was computed first).
//   - Bounded concurrency: at most Options.Workers JER evaluations run at
//     any moment (default runtime.GOMAXPROCS(0)).
//   - Single computation: concurrent requests for the same multiset are
//     coalesced (an in-flight computation is joined, not repeated), and
//     completed results are served from the LRU cache.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"juryselect/internal/jer"
	"juryselect/internal/memo"
	"juryselect/internal/pbdist"
)

// Options configures an Engine. The zero value selects sensible defaults.
type Options struct {
	// Workers bounds the number of concurrent JER evaluations. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize bounds the number of memoized JER values. Zero selects
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// CacheMinJurySize is the smallest jury the memo serves. Below it the
	// engine always computes directly: the O(n²) DP on a tiny jury is
	// cheaper than hashing the multiset key and taking the shard lock, so
	// memoizing would slow those juries down. Zero selects
	// DefaultCacheMinJurySize; negative memoizes every size.
	CacheMinJurySize int
}

// DefaultCacheMinJurySize is the memo threshold used when
// Options.CacheMinJurySize is 0. The measured crossover where a memo hit
// (multiset hash + shard-locked LRU lookup) beats recomputation sits near
// 16 jurors on current amd64 hardware.
const DefaultCacheMinJurySize = 16

// DefaultCacheSize is the memo capacity used when Options.CacheSize is 0.
// A cached entry costs ~64 bytes regardless of jury size (the key is a
// 64-bit multiset hash, not the rate vector), so even a fully populated
// default cache stays around 4 MB.
const DefaultCacheSize = 1 << 16

// Result is the outcome of evaluating one jury in a batch. Index is the
// position of the jury in the input slice, preserved so callers can rely
// on result ordering even though evaluation order is nondeterministic.
type Result struct {
	Index int
	JER   float64
	Err   error
}

// Stats reports engine counters since construction.
type Stats struct {
	// Evaluations counts JER computations actually performed.
	Evaluations int64
	// CacheHits counts requests served from the memo (including joins of
	// an in-flight computation).
	CacheHits int64
	// Inflight is the number of evaluation requests (Evaluate calls and
	// EvaluateAll batches) executing at the moment of the snapshot. A
	// serving layer uses it as the engine-side queue-depth signal for
	// load shedding and health reporting.
	Inflight int64
}

// Engine evaluates batches of juries concurrently. It is safe for
// concurrent use by multiple goroutines and is intended to be long-lived:
// construct one per service (or per experiment run) and share it so the
// memo cache accumulates across calls.
type Engine struct {
	workers  int
	cacheMin int
	memo     *memo.Cache[uint64, float64] // keyed on hashMultiset; nil when caching is disabled

	evals    atomic.Int64
	hits     atomic.Int64
	inflight atomic.Int64
}

// evalScratch is the per-worker working set of the engine's hot path: a
// reusable JER kernel plus the buffer the canonical (sorted) rate order is
// built in. One scratch serves one goroutine at a time; EvaluateAll gives
// each worker its own for the worker's whole lifetime, and one-shot
// Evaluate calls borrow one from the pool.
type evalScratch struct {
	ev     *jer.Evaluator
	sorted []float64
}

var scratchPool = sync.Pool{
	New: func() any { return &evalScratch{ev: jer.NewEvaluator()} },
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	cacheMin := opts.CacheMinJurySize
	if cacheMin == 0 {
		cacheMin = DefaultCacheMinJurySize
	} else if cacheMin < 0 {
		cacheMin = 0
	}
	e := &Engine{
		workers:  w,
		cacheMin: cacheMin,
	}
	if size > 0 {
		e.memo = memo.New[uint64, float64](size)
	}
	return e
}

// Workers returns the concurrency bound the engine was built with.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations: e.evals.Load(),
		CacheHits:   e.hits.Load(),
		Inflight:    e.inflight.Load(),
	}
}

// Evaluate returns the exact JER of one jury. Juries below the
// CacheMinJurySize threshold are computed directly on the given member
// order; memo-eligible juries are evaluated on the canonical (sorted)
// order and served from the cache when the multiset has been seen
// before, so their value is identical for every permutation. It never
// blocks on other juries — only on an identical in-flight computation.
func (e *Engine) Evaluate(rates []float64) (float64, error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	s := scratchPool.Get().(*evalScratch)
	v, err := e.evaluate(rates, s)
	scratchPool.Put(s)
	return v, err
}

// EvaluateContext is Evaluate with the cancellation semantics EvaluateAll
// documents: a context that is already done means the evaluation is never
// started and ctx.Err() is returned; once the kernel is running it
// completes normally (JER kernels are not interruptible mid-computation).
// Single-evaluation callers on a request path — e.g. an HTTP handler with
// a per-request deadline — get the same contract as batch callers.
func (e *Engine) EvaluateContext(ctx context.Context, rates []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.Evaluate(rates)
}

// evaluate is Evaluate on an explicit scratch, so batch workers amortize
// one scratch (kernel buffers + sort buffer) across their whole run.
// Rates are validated here, exactly once per request; every downstream
// computation uses the kernel's validated entry point.
func (e *Engine) evaluate(rates []float64, s *evalScratch) (float64, error) {
	if len(rates) == 0 {
		return 0, jer.ErrEmptyJury
	}
	if err := pbdist.ValidateRates(rates); err != nil {
		return 0, err
	}
	if e.memo == nil || len(rates) < e.cacheMin {
		e.evals.Add(1)
		return s.ev.ComputeValidated(rates, jer.Auto)
	}
	// One shard-lock acquisition serves a resident value, joins an
	// identical in-flight computation, or makes this call its leader.
	key := hashMultiset(rates)
	v, out, err := e.memo.Do(key, key, func() (float64, error) {
		e.evals.Add(1)
		return s.ev.ComputeValidated(canonicalize(rates, s), jer.Auto)
	})
	if out != memo.Computed && err == nil {
		e.hits.Add(1)
	}
	return v, err
}

// maxChunk caps how many consecutive indices a worker claims at once.
// Chunked claiming amortizes work-queue synchronization, which matters
// when the per-jury cost is sub-microsecond (small juries on the DP
// path); chunkFor shrinks the chunk for small or few-item batches so a
// tail of expensive items (e.g. juries of steeply growing size) is not
// serialized onto one worker.
const maxChunk = 32

func chunkFor(items, workers int) int {
	c := items / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}

// EvaluateAll evaluates every jury in rateSets and returns one Result per
// input, in input order: out[i].Index == i and out[i].JER is the exact
// JER of rateSets[i]. Work is sharded across the engine's worker pool.
//
// Cancellation: when ctx is cancelled, juries not yet claimed by a worker
// are marked with ctx.Err(); juries already in flight complete normally.
// The call always returns a fully populated slice.
func (e *Engine) EvaluateAll(ctx context.Context, rateSets [][]float64) []Result {
	out := make([]Result, len(rateSets))
	if len(rateSets) == 0 {
		return out
	}
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	workers := e.workers
	if workers > len(rateSets) {
		workers = len(rateSets)
	}
	if workers <= 1 {
		s := scratchPool.Get().(*evalScratch)
		for i, rates := range rateSets {
			if err := ctx.Err(); err != nil {
				out[i] = Result{Index: i, Err: err}
				continue
			}
			v, err := e.evaluate(rates, s)
			out[i] = Result{Index: i, JER: v, Err: err}
		}
		scratchPool.Put(s)
		return out
	}

	chunk := int64(chunkFor(len(rateSets), workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns one scratch (JER kernel + sort buffer) for
			// its whole lifetime, so the batch's steady-state allocation is
			// bounded by the worker count, not the jury count.
			s := scratchPool.Get().(*evalScratch)
			defer scratchPool.Put(s)
			for {
				lo := int(next.Add(chunk) - chunk)
				if lo >= len(rateSets) {
					return
				}
				hi := lo + int(chunk)
				if hi > len(rateSets) {
					hi = len(rateSets)
				}
				cancelled := ctx.Err()
				for i := lo; i < hi; i++ {
					if cancelled != nil {
						out[i] = Result{Index: i, Err: cancelled}
						continue
					}
					v, err := e.evaluate(rateSets[i], s)
					out[i] = Result{Index: i, JER: v, Err: err}
				}
			}
		}()
	}
	wg.Wait()
	return out
}
