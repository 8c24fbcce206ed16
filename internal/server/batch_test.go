package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"juryselect/internal/tasks"
)

// TestSelectBatchParity posts a mixed batch — valid selects across
// strategies plus per-item failures — and checks every result against
// the single endpoint: item i's bytes must equal POST /v1/select with
// the same request (modulo the trailing newline the single response
// carries), including the error items.
func TestSelectBatchParity(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	defer hs.Close()
	putPool(t, hs.URL, "crowd", testJurors(21))
	if s == nil {
		t.Fatal("no server")
	}

	selects := []SelectRequest{
		{Pool: "crowd"},
		{Pool: "crowd", Model: "pay", Budget: 2},
		{Pool: "crowd", Model: "pay", Budget: 1.5, Exact: true},
		{Pool: "ghost"},                   // 404 as a single
		{Pool: "crowd", Model: "alchemy"}, // 400 as a single
		{Pool: "crowd"},                   // repeat: served from cache
	}
	var batch BatchSelectResponse
	code, body := postSelect(s.Handler(), "/v1/select/batch", BatchSelectRequest{Selects: selects})
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(selects) {
		t.Fatalf("%d results for %d selects", len(batch.Results), len(selects))
	}
	for i, req := range selects {
		_, single := postSelect(s.Handler(), "/v1/select", req)
		got := append(append([]byte(nil), batch.Results[i]...), '\n')
		if !bytes.Equal(got, single) {
			t.Errorf("item %d (%+v):\nbatch  %s\nsingle %s", i, req, got, single)
		}
	}
}

// TestSelectBatchLimits covers the batch envelope's own validation.
func TestSelectBatchLimits(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	defer hs.Close()
	putPool(t, hs.URL, "crowd", testJurors(9))

	code, body := postSelect(s.Handler(), "/v1/select/batch", BatchSelectRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", code, body)
	}
	over := BatchSelectRequest{Selects: make([]SelectRequest, MaxBatchItems+1)}
	for i := range over.Selects {
		over.Selects[i] = SelectRequest{Pool: "crowd"}
	}
	code, body = postSelect(s.Handler(), "/v1/select/batch", over)
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte(fmt.Sprintf("at most %d", MaxBatchItems))) {
		t.Fatalf("oversized batch: status %d: %s", code, body)
	}
	full := BatchSelectRequest{Selects: over.Selects[:MaxBatchItems]}
	if code, body = postSelect(s.Handler(), "/v1/select/batch", full); code != http.StatusOK {
		t.Fatalf("full batch: status %d: %s", code, body)
	}
}

// TestTaskVoteBatchHTTP exercises POST /v1/tasks/{id}/votes/batch over
// the wire: a unanimous batch early-stops the task mid-batch and the
// overflow comes back skipped, not failed; a batch against the closed
// task is all-skipped; item validation errors stay per-item; an unknown
// task fails the whole batch with 404.
func TestTaskVoteBatchHTTP(t *testing.T) {
	hs := newTaskServer(t, 101)
	defer hs.Close()

	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		TaskCreateRequest{Pool: "crowd", TargetConfidence: 0.9}, http.StatusCreated, &created)
	task := created.Task
	yes := true
	req := TaskVoteBatchRequest{}
	for _, j := range task.Jurors {
		req.Votes = append(req.Votes, TaskVoteRequest{JurorID: j.ID, Vote: &yes})
	}
	// A malformed leading item must not derail the rest. (It leads
	// because items after the early stop are skipped unexamined.)
	req.Votes[0] = TaskVoteRequest{JurorID: task.Jurors[0].ID}

	var resp TaskVoteBatchResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+task.ID+"/votes/batch", req, http.StatusOK, &resp)
	if len(resp.Results) != len(req.Votes) {
		t.Fatalf("%d results for %d votes", len(resp.Results), len(req.Votes))
	}
	applied, skipped, failed := 0, 0, 0
	for i, r := range resp.Results {
		switch {
		case r.Applied:
			applied++
		case r.Skipped:
			skipped++
		case r.Error != "":
			failed++
		default:
			t.Fatalf("result %d carries no outcome: %+v", i, r)
		}
	}
	if failed != 1 || resp.Results[0].Error == "" {
		t.Fatalf("want exactly the malformed item failed, got %d failures: %+v", failed, resp.Results)
	}
	if resp.Task.Status != tasks.StatusDecided || resp.Task.Verdict == nil || !resp.Task.Verdict.Answer {
		t.Fatalf("unanimous yes batch should decide the task: %+v", resp.Task)
	}
	if skipped == 0 {
		t.Fatalf("early stop should skip the batch tail: applied=%d skipped=%d", applied, skipped)
	}
	if applied+skipped+failed != len(req.Votes) {
		t.Fatalf("outcomes don't partition the batch: %d+%d+%d != %d", applied, skipped, failed, len(req.Votes))
	}

	// The task is closed: a follow-up batch is all-skipped and reports
	// the final view.
	var again TaskVoteBatchResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+task.ID+"/votes/batch",
		TaskVoteBatchRequest{Votes: []TaskVoteRequest{{JurorID: task.Jurors[0].ID, Vote: &yes}}},
		http.StatusOK, &again)
	if !again.Results[0].Skipped {
		t.Fatalf("vote on closed task should be skipped: %+v", again.Results[0])
	}
	if again.Task.Status != tasks.StatusDecided {
		t.Fatalf("all-skipped batch should still return the task view: %+v", again.Task)
	}

	// Envelope validation and unknown-task failure.
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+task.ID+"/votes/batch",
		TaskVoteBatchRequest{}, http.StatusBadRequest, nil)
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/ghost/votes/batch",
		TaskVoteBatchRequest{Votes: []TaskVoteRequest{{JurorID: "j000", Vote: &yes}}},
		http.StatusNotFound, nil)
}

// TestTaskVoteBatchKeepsViewAfterRejectedItem: a rejected item after an
// applied one leaves the response's task view at the applied item's,
// not blanked to an empty view.
func TestTaskVoteBatchKeepsViewAfterRejectedItem(t *testing.T) {
	_, hs := newDurableTaskServer(t, Config{})
	var created TaskResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks",
		TaskCreateRequest{Pool: "panel", TargetConfidence: 1}, http.StatusCreated, &created)
	yes := true
	j := created.Task.Jurors[0].ID
	var resp TaskVoteBatchResponse
	doTaskJSON(t, http.MethodPost, hs.URL+"/v1/tasks/"+created.Task.ID+"/votes/batch",
		TaskVoteBatchRequest{Votes: []TaskVoteRequest{{JurorID: j, Vote: &yes}, {JurorID: j, Vote: &yes}}},
		http.StatusOK, &resp)
	if len(resp.Results) != 2 || !resp.Results[0].Applied || !strings.Contains(resp.Results[1].Error, "juror already voted") {
		t.Fatalf("results = %+v, want [applied, juror already voted]", resp.Results)
	}
	if resp.Task.ID != created.Task.ID || resp.Task.Status != tasks.StatusAwaitingVotes || resp.Task.VotesSpent != 1 {
		t.Fatalf("task view after the rejected item: id %q, status %q, %d votes; want %s, %s, 1",
			resp.Task.ID, resp.Task.Status, resp.Task.VotesSpent, created.Task.ID, tasks.StatusAwaitingVotes)
	}
}
