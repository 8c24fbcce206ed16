package simul

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"juryselect/internal/dataio"
	"juryselect/internal/pool"
	"juryselect/internal/server"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// httpBackend drives a live juryd over its wire protocol: pool CRUD for
// churn and vote folding, and per question POST /v1/select or, in the
// task lifecycle, POST /v1/tasks followed by its votes. It is the
// load-generator half of the closed loop — the same traffic shape a
// requester service would put on juryd in production.
//
// Overload handling: a 429 from admission control is not an error. The
// backend honours the Retry-After header (capped) for up to MaxShedRetries
// attempts; a request still shed after that surfaces as errStepShed, which
// the simulator records and skips. Everything else about the loop keeps
// running, so an overloaded juryd degrades the simulator's coverage, not
// its liveness.
type httpBackend struct {
	base   string
	client *http.Client

	// batcher, when set, coalesces this backend's selects with other
	// replications' into POST /v1/select/batch round trips (batch mode).
	batcher *selectBatcher

	// MaxShedRetries bounds the 429 retry budget per request.
	maxShedRetries int
	// maxRetryAfter caps a server-suggested backoff.
	maxRetryAfter time.Duration
}

const (
	defaultShedRetries   = 3
	defaultMaxRetryAfter = 500 * time.Millisecond
)

// newHTTPBackend returns a backend speaking to a juryd at base
// (e.g. "http://127.0.0.1:8080").
func newHTTPBackend(base string, client *http.Client) *httpBackend {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &httpBackend{
		base:           base,
		client:         client,
		maxShedRetries: defaultShedRetries,
		maxRetryAfter:  defaultMaxRetryAfter,
	}
}

// doJSON issues one JSON request and decodes the response into out when
// the status matches want.
func (hb *httpBackend) doJSON(ctx context.Context, method, path string, body, out any, want int) (int, error) {
	var r io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		r = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, hb.base+path, r)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hb.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusTooManyRequests {
			return resp.StatusCode, retryAfterError{delay: parseRetryAfter(resp, hb.maxRetryAfter)}
		}
		return resp.StatusCode, fmt.Errorf("simul: %s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("simul: decoding %s %s response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// retryAfterError carries the server-suggested backoff of a 429.
type retryAfterError struct{ delay time.Duration }

func (e retryAfterError) Error() string { return "simul: 429 shed" }

// parseRetryAfter reads the Retry-After header (delta-seconds form),
// clamped into (0, max].
func parseRetryAfter(resp *http.Response, max time.Duration) time.Duration {
	d := 50 * time.Millisecond
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > max {
		d = max
	}
	return d
}

func (hb *httpBackend) PutPool(ctx context.Context, name string, jurors []jury.Juror) error {
	req := server.PutJurorsRequest{Jurors: make([]dataio.JurorJSON, len(jurors))}
	for i, j := range jurors {
		req.Jurors[i] = dataio.JurorJSON{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost}
	}
	_, err := hb.doJSON(ctx, http.MethodPut, "/v1/pools/"+name+"/jurors", req, nil, http.StatusOK)
	return err
}

func (hb *httpBackend) Patch(ctx context.Context, name string, ups []pool.JurorUpdate) error {
	req := server.PatchJurorsRequest{Updates: ups}
	_, err := hb.doJSON(ctx, http.MethodPatch, "/v1/pools/"+name+"/jurors", req, nil, http.StatusOK)
	return err
}

// retry issues a select or task create through try until it succeeds,
// fails with anything but a 429, or is still shed after maxShedRetries
// Retry-After backoffs (errStepShed). It returns the 429s absorbed and
// the final attempt's round-trip time.
func (hb *httpBackend) retry(ctx context.Context, try func() error) (retried int, latencyNS int64, err error) {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		err = try()
		latencyNS = time.Since(start).Nanoseconds()
		ra, shed := err.(retryAfterError)
		if !shed {
			return retried, latencyNS, err
		}
		retried++
		if attempt >= hb.maxShedRetries {
			return retried, latencyNS, errStepShed
		}
		select {
		case <-time.After(ra.delay):
		case <-ctx.Done():
			return retried, latencyNS, ctx.Err()
		}
	}
}

func (hb *httpBackend) Select(ctx context.Context, name string, sc Scenario) (selection, error) {
	req := server.SelectRequest{Pool: name}
	switch sc.Strategy {
	case StrategyPay:
		req.Model = "pay"
		req.Budget = sc.Budget
	case StrategyExact:
		req.Model = "pay"
		req.Budget = sc.Budget
		req.Exact = true
	default:
		req.Model = "altr"
	}
	var resp server.SelectResponse
	retried, latency, err := hb.retry(ctx, func() (err error) {
		if hb.batcher != nil {
			resp, err = hb.batcher.do(ctx, req)
		} else {
			_, err = hb.doJSON(ctx, http.MethodPost, "/v1/select", req, &resp, http.StatusOK)
		}
		return err
	})
	if err != nil {
		return selection{Retried: retried, LatencyNS: latency}, err
	}
	sel := selection{
		IDs:          make([]string, len(resp.Selection.Jurors)),
		PredictedJER: resp.Selection.JER,
		Cost:         resp.Selection.Cost,
		PoolVersion:  resp.PoolVersion,
		Retried:      retried,
		LatencyNS:    latency,
	}
	for i, j := range resp.Selection.Jurors {
		sel.IDs[i] = j.ID
	}
	return sel, nil
}

func (hb *httpBackend) CreateTask(ctx context.Context, name string, sc Scenario) (selection, error) {
	req := server.TaskCreateRequest{
		Pool:             name,
		Strategy:         sc.Strategy,
		Budget:           sc.Budget,
		TargetConfidence: sc.TargetConfidence,
	}
	var resp server.TaskResponse
	retried, latency, err := hb.retry(ctx, func() error {
		_, err := hb.doJSON(ctx, http.MethodPost, "/v1/tasks", req, &resp, http.StatusCreated)
		return err
	})
	if err != nil {
		return selection{Retried: retried, LatencyNS: latency}, err
	}
	sel := selectionFromView(resp.Task)
	sel.Retried, sel.LatencyNS = retried, latency
	return sel, nil
}

func (hb *httpBackend) TaskAnswer(ctx context.Context, id string, b tasks.Ballot) (taskProgress, error) {
	var resp server.TaskResponse
	_, err := hb.doJSON(ctx, http.MethodPost, "/v1/tasks/"+id+"/votes",
		b, &resp, http.StatusOK)
	if err != nil {
		return taskProgress{}, err
	}
	return progressFromView(resp.Task), nil
}

func (hb *httpBackend) TaskVoteBatch(ctx context.Context, id string, ballots []tasks.Ballot) ([]tasks.BallotResult, taskProgress, error) {
	var resp server.TaskVoteBatchResponse
	_, err := hb.doJSON(ctx, http.MethodPost, "/v1/tasks/"+id+"/votes/batch",
		server.TaskVoteBatchRequest{Votes: ballots}, &resp, http.StatusOK)
	if err != nil {
		return nil, taskProgress{}, err
	}
	if len(resp.Results) != len(ballots) {
		return nil, taskProgress{}, fmt.Errorf("simul: batch vote: %d results for %d votes", len(resp.Results), len(ballots))
	}
	return resp.Results, progressFromView(resp.Task), nil
}

func (hb *httpBackend) DeletePool(ctx context.Context, name string) error {
	code, err := hb.doJSON(ctx, http.MethodDelete, "/v1/pools/"+name, nil, nil, http.StatusNoContent)
	if code == http.StatusNotFound {
		return nil // already gone: cleanup is idempotent
	}
	return err
}

func (hb *httpBackend) Close() error {
	hb.client.CloseIdleConnections()
	return nil
}
