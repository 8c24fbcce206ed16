package simul

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"juryselect/internal/server"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// newJuryd boots an httptest juryd with the given config; with no task
// store configured it fronts a memory-only one.
func newJuryd(t testing.TB, cfg server.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPMatchesInProcess is the closed-loop parity contract: the same
// scenario driven over HTTP against a live juryd walks the exact same
// decision trajectory as the in-process run — same selected jury sizes,
// same decisions, same regret and calibration, step by step — because
// both modes consume the same random streams and the service applies the
// same estimate math the simulator mirrors.
func TestHTTPMatchesInProcess(t *testing.T) {
	scenarios := []Scenario{
		{Name: "parity-static", Seed: 13, Steps: 30, Population: 12, Replications: 2},
		{Name: "parity-drift-churn", Seed: 13, Steps: 30, Population: 12, Replications: 2,
			Drift: DriftSpec{Model: DriftWalk, Sigma: 0.02}, ChurnPerStep: 0.7, Availability: 0.8},
		{Name: "parity-pay", Seed: 13, Steps: 20, Population: 12, Replications: 1,
			Strategy: StrategyPay, Budget: 1.5},
		{Name: "parity-oracle", Seed: 13, Steps: 20, Population: 12, Replications: 1,
			Estimator: EstimatorOracle, Drift: DriftSpec{Model: DriftShift}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			local, err := Run(context.Background(), sc, Options{Mode: ModeInProcess, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := newJuryd(t, server.Config{})
			remote, err := Run(context.Background(), sc, Options{
				Mode: ModeHTTP, Addr: ts.URL, Client: ts.Client(), Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if remote.Summary.TotalShed != 0 {
				t.Fatalf("unloaded juryd shed %d requests", remote.Summary.TotalShed)
			}
			for i := range local.Replications {
				lr, rr := local.Replications[i], remote.Replications[i]
				if !reflect.DeepEqual(lr.Trace, rr.Trace) {
					t.Fatalf("rep %d: traces diverge between modes", i)
				}
				if lr.Accuracy != rr.Accuracy || lr.MeanRegret != rr.MeanRegret ||
					lr.MeanCalibration != rr.MeanCalibration || lr.TotalSpend != rr.TotalSpend ||
					lr.FinalPoolVersion != rr.FinalPoolVersion {
					t.Fatalf("rep %d: aggregates diverge:\nlocal  %+v\nremote %+v", i, lr, rr)
				}
			}
		})
	}
}

// TestTaskLifecycleHTTPMatchesInProcess extends the parity contract to
// the durable task subsystem: create → sequential votes/declines →
// verdict over the wire must walk the same per-step trajectory — votes
// spent, declines, replacements, early stops — as the in-process task
// store, because both expose identical invitation orders and the
// simulator draws its randomness lazily in that order.
func TestTaskLifecycleHTTPMatchesInProcess(t *testing.T) {
	scenarios := []Scenario{
		{Name: "task-parity", Seed: 41, Steps: 25, Population: 14, Replications: 2,
			Lifecycle: LifecycleTask, Availability: 0.75},
		{Name: "task-parity-fixed", Seed: 41, Steps: 15, Population: 14, Replications: 1,
			Lifecycle: LifecycleTask, TargetConfidence: 1, Availability: 0.9,
			Drift: DriftSpec{Model: DriftWalk, Sigma: 0.02}, ChurnPerStep: 0.5},
		{Name: "task-parity-pay", Seed: 41, Steps: 15, Population: 14, Replications: 1,
			Lifecycle: LifecycleTask, Strategy: StrategyPay, Budget: 1.5, Availability: 0.8},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			local, err := Run(context.Background(), sc, Options{Mode: ModeInProcess, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := newJuryd(t, server.Config{})
			remote, err := Run(context.Background(), sc, Options{
				Mode: ModeHTTP, Addr: ts.URL, Client: ts.Client(), Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if remote.Summary.TotalShed != 0 {
				t.Fatalf("unloaded juryd shed %d requests", remote.Summary.TotalShed)
			}
			for i := range local.Replications {
				lr, rr := local.Replications[i], remote.Replications[i]
				if !reflect.DeepEqual(lr.Trace, rr.Trace) {
					t.Fatalf("rep %d: task traces diverge between modes", i)
				}
				if lr.TotalVotes != rr.TotalVotes || lr.TotalDeclines != rr.TotalDeclines ||
					lr.Replacements != rr.Replacements || lr.EarlyStopped != rr.EarlyStopped ||
					lr.Accuracy != rr.Accuracy {
					t.Fatalf("rep %d: task aggregates diverge:\nlocal  %+v\nremote %+v", i, lr, rr)
				}
			}
		})
	}
}

// TestOverloadShedsGracefully drives juryd past its admission bound: one
// inflight slot, no queue, and background hammer clients keeping that
// slot hot with expensive selects over a large pool, while the simulator
// runs its closed loop against the same instance. The requirement is
// graceful degradation — the run completes without error, 429s are
// absorbed as Retry-After backoffs or recorded as shed steps, and the
// step accounting still partitions.
func TestOverloadShedsGracefully(t *testing.T) {
	// The hammer pool makes each slot occupancy O(N²)-expensive while
	// request parsing stays trivial, so the admission slot is busy for
	// nearly the whole hammer round trip.
	hammer := make([]jury.Juror, 4001)
	for i := range hammer {
		hammer[i] = jury.Juror{ID: fmt.Sprintf("h%04d", i), ErrorRate: 0.1 + 0.00005*float64(i)}
	}
	store, err := tasks.Open(tasks.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutPool("hammer", hammer); err != nil {
		t.Fatal(err)
	}
	// The select cache would absorb the hammer (every round trip after
	// the first is a version-keyed hit that bypasses admission), so this
	// test disables it: overload shedding is about uncacheable work.
	ts := newJuryd(t, server.Config{Tasks: store, MaxInflight: 1, MaxQueue: -1, SelectCacheEntries: -1})
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(`{"pool":"hammer"}`)
			for hctx.Err() == nil {
				req, err := http.NewRequestWithContext(hctx, http.MethodPost, ts.URL+"/v1/select", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp, err := ts.Client().Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}

	sc := Scenario{Name: "overload", Seed: 17, Steps: 10, Population: 30, Replications: 2}
	rep, err := Run(context.Background(), sc, Options{
		Mode: ModeHTTP, Addr: ts.URL, Client: ts.Client(), Workers: 2,
		ShedRetries: 2, MaxRetryAfter: 50 * time.Millisecond,
	})
	hcancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("overloaded run must degrade, not fail: %v", err)
	}
	for _, r := range rep.Replications {
		if r.Decided+r.Undecided+r.Shed != r.Steps {
			t.Errorf("rep %d: step partition broken: %+v", r.Replication, r)
		}
	}
	if rep.Summary.TotalRetries == 0 && rep.Summary.TotalShed == 0 {
		t.Error("admission control never triggered: the hammer failed to overload the server")
	}
	t.Logf("shed %d steps (rate %.2f), %d retries absorbed",
		rep.Summary.TotalShed, rep.Summary.ShedRate, rep.Summary.TotalRetries)
}

// TestDeadBackendFailsFast: the first replication error cancels the
// rest instead of letting every replication time out in turn.
func TestDeadBackendFailsFast(t *testing.T) {
	ts := newJuryd(t, server.Config{})
	ts.Close() // nothing listens here any more
	sc := Scenario{Name: "dead", Seed: 29, Steps: 10, Population: 10, Replications: 16}
	start := time.Now()
	_, err := Run(context.Background(), sc, Options{
		Mode: ModeHTTP, Addr: ts.URL, Workers: 4,
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err == nil {
		t.Fatal("run against a dead server succeeded")
	}
	// 16 replications × a 2s client timeout each would take ≥8s through
	// 4 workers if errors didn't cancel the rest.
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("error took %s to surface: replications were not cancelled", elapsed)
	}
}

// TestHTTPReportsLatency: HTTP-mode reports carry a latency summary.
func TestHTTPReportsLatency(t *testing.T) {
	ts := newJuryd(t, server.Config{})
	sc := Scenario{Name: "latency", Seed: 19, Steps: 10, Population: 10, Replications: 1}
	rep, err := Run(context.Background(), sc, Options{Mode: ModeHTTP, Addr: ts.URL, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	lat := rep.Replications[0].Latency
	if lat == nil || lat.Count != 10 || lat.P99NS < lat.P50NS || lat.MaxNS <= 0 {
		t.Fatalf("latency summary = %+v", lat)
	}
}
