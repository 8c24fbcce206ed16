package simul

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"juryselect/internal/server"
)

// selectBatcher coalesces concurrent single selects — issued by
// independent replication workers — into POST /v1/select/batch round
// trips, group-commit style: the first arrival leads a flight and
// carries every request pending at takeoff, up to server.MaxBatchItems;
// arrivals during a flight park and form the next one. Selection is a
// pure function of (pool version, strategy, params), so riding in a
// batch cannot change any caller's result — only how many round trips
// carry it.
type selectBatcher struct {
	base   string
	client *http.Client

	mu      sync.Mutex
	leading bool
	pending []*batchCall
}

// batchCall is one parked select: its request, and the result the
// flight leader deposits before closing done.
type batchCall struct {
	ctx  context.Context
	req  server.SelectRequest
	done chan struct{}
	resp server.SelectResponse
	err  error
}

// newSelectBatcher returns a batcher posting to the juryd at base.
func newSelectBatcher(base string, client *http.Client) *selectBatcher {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &selectBatcher{base: base, client: client}
}

// do submits one select and blocks until its flight lands. A shed item
// surfaces as retryAfterError, exactly like a single select's 429, so
// the caller's retry loop needs no batch awareness.
func (sb *selectBatcher) do(ctx context.Context, req server.SelectRequest) (server.SelectResponse, error) {
	c := &batchCall{ctx: ctx, req: req, done: make(chan struct{})}
	sb.mu.Lock()
	sb.pending = append(sb.pending, c)
	if sb.leading {
		sb.mu.Unlock()
		select {
		case <-c.done:
			return c.resp, c.err
		case <-ctx.Done():
			// The flight will still land and deposit a result nobody
			// reads; abandoning it here keeps cancellation prompt.
			return server.SelectResponse{}, ctx.Err()
		}
	}
	sb.leading = true
	for {
		batch := sb.pending
		if len(batch) > server.MaxBatchItems {
			batch = batch[:server.MaxBatchItems:server.MaxBatchItems]
			sb.pending = sb.pending[server.MaxBatchItems:]
		} else {
			sb.pending = nil
		}
		sb.mu.Unlock()
		sb.flight(batch)
		sb.mu.Lock()
		if len(sb.pending) == 0 {
			sb.leading = false
			sb.mu.Unlock()
			// The leader's own call rode the first flight; done is closed.
			<-c.done
			return c.resp, c.err
		}
		// Requests parked during the flight: stay leader and fly them too,
		// or they would wait for an arrival that may never come.
	}
}

// flight performs one batch round trip and deposits per-call results.
func (sb *selectBatcher) flight(batch []*batchCall) {
	defer func() {
		for _, c := range batch {
			close(c.done)
		}
	}()
	fail := func(err error) {
		for _, c := range batch {
			c.err = err
		}
	}
	req := server.BatchSelectRequest{Selects: make([]server.SelectRequest, len(batch))}
	for i, c := range batch {
		req.Selects[i] = c.req
	}
	raw, err := json.Marshal(req)
	if err != nil {
		fail(err)
		return
	}
	// The flight borrows the first rider's context: all replication
	// workers derive from one run context, so cancelling any of them
	// means the run is ending for everyone aboard.
	httpReq, err := http.NewRequestWithContext(batch[0].ctx, http.MethodPost, sb.base+"/v1/select/batch", bytes.NewReader(raw))
	if err != nil {
		fail(err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := sb.client.Do(httpReq)
	if err != nil {
		fail(err)
		return
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		fail(err)
		return
	}
	if httpResp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("simul: POST /v1/select/batch: status %d: %s", httpResp.StatusCode, body))
		return
	}
	var resp server.BatchSelectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		fail(fmt.Errorf("simul: decoding batch select response: %w", err))
		return
	}
	if len(resp.Results) != len(batch) {
		fail(fmt.Errorf("simul: batch select: %d results for %d selects", len(resp.Results), len(batch)))
		return
	}
	for i, c := range batch {
		var item struct {
			server.SelectResponse
			Error string `json:"error"`
		}
		if err := json.Unmarshal(resp.Results[i], &item); err != nil {
			c.err = fmt.Errorf("simul: decoding batch select item: %w", err)
			continue
		}
		switch {
		case item.Error == server.OverloadedMsg:
			// A shed item inside a 200 batch is the same admission-control
			// signal as a single select's 429 (the batch response carries
			// no per-item Retry-After, so use the default backoff).
			c.err = retryAfterError{delay: 50 * time.Millisecond}
		case item.Error != "":
			c.err = fmt.Errorf("simul: batch select item: %s", item.Error)
		default:
			c.resp = item.SelectResponse
		}
	}
}
