package jury

import (
	"context"

	"juryselect/internal/core"
	"juryselect/internal/engine"
)

// BatchOptions configures an Engine. The zero value selects sensible
// defaults.
type BatchOptions struct {
	// Workers bounds the number of concurrent JER evaluations and exact
	// enumeration workers; zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize bounds the engine's JER memo (entries, LRU-evicted). Zero
	// selects the engine default; negative disables memoization. Juries
	// smaller than 16 jurors bypass the memo: the O(n²) DP on a tiny jury
	// is cheaper than a lookup.
	CacheSize int
}

// Result is the outcome of evaluating one jury in a batch. Index is the
// jury's position in the input slice; results are always returned in
// input order regardless of scheduling, so Results[i].Index == i.
type Result struct {
	Index int
	JER   float64
	Err   error
}

// Engine is a long-lived concurrent JER evaluator: a bounded worker pool
// plus a sharded LRU memo keyed on an order-invariant hash of the jury's
// error-rate multiset, so any jury — in any member order, from any caller
// — is computed exactly once while cached, and a warm hit costs one hash
// pass and one shard-lock acquisition. Workers hold reusable JER kernels,
// so steady-state batches do not allocate per jury. Construct one per
// service and share it across requests; it is safe for concurrent use.
type Engine struct {
	eng *engine.Engine
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts BatchOptions) *Engine {
	return &Engine{eng: engine.New(engine.Options{
		Workers:   opts.Workers,
		CacheSize: opts.CacheSize,
	})}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.eng.Workers() }

// EngineStats is a snapshot of the engine's counters, the observability
// surface a serving layer exports (e.g. juryd's /metrics).
type EngineStats struct {
	// Evaluations counts exact JER computations actually performed.
	Evaluations int64
	// CacheHits counts requests served from the memo, including joins of
	// an identical in-flight computation.
	CacheHits int64
	// Inflight is the number of evaluation requests (JER calls and
	// EvaluateAll batches) executing at the snapshot moment.
	Inflight int64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats {
	st := e.eng.Stats()
	return EngineStats{Evaluations: st.Evaluations, CacheHits: st.CacheHits, Inflight: st.Inflight}
}

// JER returns the exact Jury Error Rate of one jury, served from the memo
// when its error-rate multiset has been evaluated before.
func (e *Engine) JER(errorRates []float64) (float64, error) {
	return e.eng.Evaluate(errorRates)
}

// JERContext is JER with the cancellation semantics EvaluateAll documents:
// a context that is already done returns ctx.Err() without starting the
// evaluation; a computation already running completes normally (JER
// kernels are not interruptible mid-flight). Single-evaluation callers on
// a request path — an HTTP handler with a per-request deadline — get the
// same contract as batch callers.
func (e *Engine) JERContext(ctx context.Context, errorRates []float64) (float64, error) {
	return e.eng.EvaluateContext(ctx, errorRates)
}

// EvaluateAll computes the exact JER of every jury concurrently and
// returns one Result per jury in input order, for every worker count.
// Juries computed directly are byte-identical to a serial JER loop over
// the same member order; memo-served juries (16 jurors and up, cache
// enabled) are evaluated in canonical sorted order, making the
// value a pure function of the jury's error-rate multiset — byte-stable
// across member orders, schedules and runs. When ctx is cancelled,
// juries not yet claimed carry ctx.Err(); the slice is always fully
// populated.
func (e *Engine) EvaluateAll(ctx context.Context, juries [][]Juror) []Result {
	rateSets := make([][]float64, len(juries))
	for i, j := range juries {
		rates := make([]float64, len(j))
		for k, juror := range j {
			rates[k] = juror.ErrorRate
		}
		rateSets[i] = rates
	}
	raw := e.eng.EvaluateAll(ctx, rateSets)
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = Result{Index: r.Index, JER: r.JER, Err: r.Err}
	}
	return out
}

// SelectAltruisticSnapshot solves JSP under the Altruism model over a
// candidate snapshot that is already validated and sorted ascending by
// error rate — e.g. an immutable juror-pool snapshot a service holds
// behind an atomic pointer. It skips re-validation and re-sorting, scans
// the slice read-only (the snapshot can be shared by concurrent
// requests), and honours ctx between prefix sizes, so a per-request
// deadline bounds the scan. The sweep maintains the wrong-vote
// distribution incrementally (O(N²) total), the fastest altruistic path
// on any core count; the result is identical to SelectAltruistic on the
// same candidates.
func (e *Engine) SelectAltruisticSnapshot(ctx context.Context, sorted []Juror) (Selection, error) {
	return core.SelectAltr(sorted, core.AltrOptions{
		Incremental: true,
		Presorted:   true,
		Ctx:         ctx,
	})
}

// SelectBudgetedContext runs the PayALG greedy like SelectBudgeted with
// the engine's memo fronting the admission checks: across a budget sweep
// (or any workload that revisits sub-juries) each distinct error-rate
// multiset of 16 or more jurors is computed once. The checks poll ctx, so
// a per-request deadline bounds the scan; a check already in flight
// completes normally.
func (e *Engine) SelectBudgetedContext(ctx context.Context, candidates []Juror, budget float64) (Selection, error) {
	return core.SelectPay(candidates, core.PayOptions{
		Budget: budget,
		Evaluate: func(rates []float64) (float64, error) {
			return e.eng.EvaluateContext(ctx, rates)
		},
	})
}

// SelectExactContext is SelectExact on the engine's worker count, with
// cancellation: enumeration workers poll ctx between shards, so a
// per-request deadline bounds the exponential scan (at most a few
// milliseconds of overshoot per worker). The result is the one
// SelectExact returns.
func (e *Engine) SelectExactContext(ctx context.Context, candidates []Juror, budget float64) (Selection, error) {
	return core.SelectOpt(ctx, candidates, budget, e.eng.Workers())
}

// EvaluateAll computes the exact JER of every jury concurrently with a
// fresh default engine. For repeated batches construct an Engine once so
// the memo cache carries across calls.
func EvaluateAll(ctx context.Context, juries [][]Juror) []Result {
	return NewEngine(BatchOptions{}).EvaluateAll(ctx, juries)
}
