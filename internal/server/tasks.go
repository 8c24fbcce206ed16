package server

import (
	"context"
	"net/http"

	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// TaskCreateRequest is the body of POST /v1/tasks: a decision-making
// task posed to a jury selected from a live pool.
type TaskCreateRequest struct {
	// Pool names the juror pool to select from.
	Pool string `json:"pool"`
	// Question is the task's free-text payload (opaque to the service).
	Question string `json:"question,omitempty"`
	// Strategy is "altr" (default) or "pay".
	Strategy string `json:"strategy,omitempty"`
	// Budget is the pay model's budget B (pay strategy only).
	Budget float64 `json:"budget,omitempty"`
	// TargetConfidence closes the task early once the posterior verdict
	// confidence crosses it, in (0.5, 1]. Exactly 1 disables early stop
	// (fixed-jury voting); zero selects the server default (0.9).
	TargetConfidence float64 `json:"target_confidence,omitempty"`
	// MaxInvites caps total invitations including the initial jury
	// (0 = twice the initial jury).
	MaxInvites int `json:"max_invites,omitempty"`
	// JurorTimeoutMS releases a non-responding juror after this long
	// (0 = server default).
	JurorTimeoutMS int64 `json:"juror_timeout_ms,omitempty"`
	// ExpiresInMS closes the whole task without a verdict after this
	// long (0 = server default).
	ExpiresInMS int64 `json:"expires_in_ms,omitempty"`
	// TimeoutMS optionally overrides the per-request deadline for the
	// jury selection, clamped to the configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TaskResponse wraps a task view: the body of POST /v1/tasks (201),
// GET /v1/tasks/{id} and POST /v1/tasks/{id}/votes.
type TaskResponse struct {
	Task tasks.View `json:"task"`
}

// TaskListResponse is the body of GET /v1/tasks.
type TaskListResponse struct {
	Tasks []tasks.View `json:"tasks"`
}

// TaskVoteRequest is the body of POST /v1/tasks/{id}/votes: either a
// vote or an explicit decline (which releases the juror and invites the
// next-best replacement).
type TaskVoteRequest = tasks.Ballot

// handleTaskCreate serves POST /v1/tasks: select a jury and open the
// task. Selection is the expensive step, so creation passes through the
// same admission control as /v1/select.
func (s *Server) handleTaskCreate(w http.ResponseWriter, r *http.Request) {
	var req TaskCreateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	d, err := s.deadline(req.TimeoutMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	jurorTimeout, err := msDuration("juror_timeout_ms", req.JurorTimeoutMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	expiresIn, err := msDuration("expires_in_ms", req.ExpiresInMS)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageQueueWait)
	defer release()
	view, err := s.tasks.Create(s.traceCtx(ctx, w), tasks.Spec{
		Pool:             req.Pool,
		Question:         req.Question,
		Strategy:         req.Strategy,
		Budget:           req.Budget,
		TargetConfidence: req.TargetConfidence,
		MaxInvites:       req.MaxInvites,
		JurorTimeout:     jurorTimeout,
		ExpiresIn:        expiresIn,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageStore)
	setTraceTask(w, view.ID)
	s.m.taskCreates.Add(1)
	writeTask(w, http.StatusCreated, &view)
}

// handleTaskList serves GET /v1/tasks[?status=...].
func (s *Server) handleTaskList(w http.ResponseWriter, r *http.Request) {
	status := tasks.Status(r.URL.Query().Get("status"))
	switch status {
	case "", tasks.StatusOpen, tasks.StatusAwaitingVotes, tasks.StatusDecided, tasks.StatusExpired:
	default:
		s.fail(w, badRequest("unknown status %q", status))
		return
	}
	writeTaskList(w, s.tasks.List(status))
}

// handleTaskGet serves GET /v1/tasks/{id}.
func (s *Server) handleTaskGet(w http.ResponseWriter, r *http.Request) {
	setTraceTask(w, r.PathValue("id"))
	view, err := s.tasks.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeTask(w, http.StatusOK, &view)
}

// handleTaskVote serves POST /v1/tasks/{id}/votes: one juror's vote (or
// decline) applied to the posterior, returning the updated task — which
// may have just decided (sequential early stop) or invited a
// replacement. O(1) per call, so it bypasses evaluation admission.
func (s *Server) handleTaskVote(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setTraceTask(w, id)
	var req TaskVoteRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if err := req.Check(); err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	var (
		view tasks.View
		err  error
	)
	ctx := s.traceCtx(r.Context(), w)
	if req.Decline {
		view, err = s.tasks.Decline(ctx, id, req.JurorID)
	} else {
		view, err = s.tasks.Vote(ctx, id, req.JurorID, *req.Vote)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	mark(w, obs.StageStore)
	s.m.taskVotes.Add(1)
	if view.Status == tasks.StatusDecided && view.Verdict != nil {
		s.m.taskVerdicts.Add(1)
	}
	writeTask(w, http.StatusOK, &view)
}

// TaskVoteBatchRequest is the body of POST /v1/tasks/{id}/votes/batch:
// several jurors' votes (or declines) on one task in a single round
// trip, applied in order.
type TaskVoteBatchRequest struct {
	Votes []TaskVoteRequest `json:"votes"`
}

// TaskVoteBatchResponse is the body of a successful batch vote: the
// per-item outcomes and the task view after the last applied item.
type TaskVoteBatchResponse struct {
	Results []tasks.BallotResult `json:"results"`
	Task    tasks.View           `json:"task"`
}

// handleTaskVoteBatch serves POST /v1/tasks/{id}/votes/batch: the votes
// apply in order through tasks.Store.VoteBatch, which skips the items
// after the task closes and reports item failures per item. An unknown
// task fails the whole batch, a 404, and so does a failed durability
// wait, a 500 (tasks.ErrStoreFailed): the batch waits once, on its last
// applied vote, so when that wait fails no applied vote is known
// durable.
func (s *Server) handleTaskVoteBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setTraceTask(w, id)
	var req TaskVoteBatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Votes) == 0 {
		s.fail(w, badRequest("votes must be non-empty"))
		return
	}
	if len(req.Votes) > MaxBatchItems {
		s.fail(w, badRequest("batch accepts at most %d votes, got %d", MaxBatchItems, len(req.Votes)))
		return
	}
	results, view, err := s.tasks.VoteBatch(s.traceCtx(r.Context(), w), id, req.Votes)
	if err != nil {
		s.fail(w, err)
		return
	}
	var applied int64
	for _, res := range results {
		if res.Applied {
			applied++
		}
	}
	s.m.taskVotes.Add(applied)
	// At most one applied item can close the task, and the view is the
	// one after the last applied item.
	if applied > 0 && view.Status == tasks.StatusDecided && view.Verdict != nil {
		s.m.taskVerdicts.Add(1)
	}
	mark(w, obs.StageStore)
	s.m.batchVotes.Add(1)
	writeTaskBatch(w, results, &view)
}
