package simul

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"juryselect/jury"
)

// Run modes.
const (
	// ModeInProcess drives the service stack in-process: the same task
	// store and JER engine juryd serves from, without HTTP.
	ModeInProcess = "inprocess"
	// ModeHTTP drives a live juryd over its wire protocol.
	ModeHTTP = "http"
)

// Options configures a run.
type Options struct {
	// Mode is ModeInProcess (default) or ModeHTTP.
	Mode string
	// Addr is the juryd base URL (e.g. "http://127.0.0.1:8080");
	// required in HTTP mode.
	Addr string
	// Workers bounds how many replications run concurrently; zero
	// selects runtime.GOMAXPROCS(0). Replications are independent, so
	// the fan-out scales near-linearly until it saturates the cores (or,
	// in HTTP mode, the served juryd — which is the point of the
	// overload scenarios).
	Workers int
	// Trace includes the full per-step record stream in the report.
	Trace bool
	// Batch switches to the batch wire protocol: task votes post whole
	// invitation rounds through POST /v1/tasks/{id}/votes/batch, and in
	// HTTP mode concurrent selects from replication workers coalesce
	// into POST /v1/select/batch round trips. Batch mode draws a round's
	// availability and votes upfront, so its trajectories differ from
	// single-shot mode — but stay deterministic and identical between
	// the in-process and HTTP backends at the same setting.
	Batch bool
	// Client overrides the HTTP client (tests; HTTP mode only).
	Client *http.Client
	// Engine overrides the shared JER engine (tests and benchmarks).
	Engine *jury.Engine
	// ShedRetries bounds how many 429 responses one select or task
	// create absorbs via Retry-After backoff before the step is recorded
	// as shed; zero selects the default (HTTP mode only).
	ShedRetries int
	// MaxRetryAfter caps a server-suggested backoff; zero selects the
	// default (HTTP mode only).
	MaxRetryAfter time.Duration
}

// Run executes every replication of the scenario and assembles the
// metrics report. Replications fan out across a bounded worker pool;
// results are assembled in replication order, so the report is
// independent of scheduling.
func Run(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	mode := opts.Mode
	if mode == "" {
		mode = ModeInProcess
	}
	if mode != ModeInProcess && mode != ModeHTTP {
		return nil, fmt.Errorf("simul: unknown mode %q (want %s or %s)", mode, ModeInProcess, ModeHTTP)
	}
	if mode == ModeHTTP && opts.Addr == "" {
		return nil, fmt.Errorf("simul: HTTP mode requires an address")
	}
	eng := opts.Engine
	if eng == nil {
		eng = jury.NewEngine(jury.BatchOptions{})
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sc.Replications {
		workers = sc.Replications
	}

	// One batcher spans every replication worker: select coalescing only
	// pays off across concurrent backends sharing round trips.
	var sb *selectBatcher
	if mode == ModeHTTP && opts.Batch {
		sb = newSelectBatcher(opts.Addr, opts.Client)
	}
	newBackend := func() backend {
		if mode == ModeHTTP {
			hb := newHTTPBackend(opts.Addr, opts.Client)
			hb.batcher = sb
			if opts.ShedRetries > 0 {
				hb.maxShedRetries = opts.ShedRetries
			}
			if opts.MaxRetryAfter > 0 {
				hb.maxRetryAfter = opts.MaxRetryAfter
			}
			return hb
		}
		// A fresh store per replication keeps pool histories independent;
		// the engine (and its memo) is shared, like in the real service.
		return newLocalBackend(eng)
	}

	// Fail fast: the first replication error cancels the rest (their
	// in-flight HTTP requests abort through the request context), so a
	// dead juryd surfaces immediately instead of after every remaining
	// replication times out in turn.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	results := make([]RepResult, sc.Replications)
	errs := make([]error, sc.Replications)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			defer wg.Done()
			for {
				rep := int(next.Add(1) - 1)
				if rep >= sc.Replications || runCtx.Err() != nil {
					return
				}
				be := newBackend()
				res, err := runReplication(runCtx, sc, rep, be, eng, opts.Batch, opts.Trace)
				be.Close() //nolint:errcheck
				results[rep], errs[rep] = res, err
				if err != nil {
					cancelRun()
				}
			}
		}()
	}
	wg.Wait()
	// Prefer the root-cause error over the cancellations it induced.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Report{
		Schema:       ReportSchema,
		Mode:         mode,
		Scenario:     sc,
		Summary:      summarize(sc, results),
		Replications: results,
	}, nil
}
