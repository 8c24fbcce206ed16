package simul

import (
	"context"
	"errors"
	"fmt"

	"juryselect/internal/pool"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// selection is the jury one question is put to, whichever backend and
// lifecycle chose it: a select's jury or a created task's initial
// invitees, in invitation order.
type selection struct {
	// TaskID names the created task (task lifecycle only).
	TaskID string
	IDs    []string
	// PredictedJER is the JER of the jury under the estimates — what the
	// system believes its failure probability is.
	PredictedJER float64
	// Cost is the jury's total payment requirement.
	Cost float64
	// PoolVersion is the pool snapshot the selection read (0 inline).
	PoolVersion uint64
	// Retried counts 429-shed attempts absorbed before this outcome
	// (HTTP backend only).
	Retried int
	// LatencyNS is the round-trip time of the final attempt (HTTP
	// backend only; excluded from the deterministic metrics).
	LatencyNS int64
}

// errStepShed reports that the service shed the select or task create
// even after the backend's Retry-After backoff budget. The simulator
// records the step as shed and moves on — overload degrades coverage,
// never aborts the run.
var errStepShed = errors.New("simul: selection shed by admission control")

// taskProgress is the task state after one answer or batch.
type taskProgress struct {
	// Closed reports a terminal status; Decided distinguishes a verdict
	// from an undecided expiry.
	Closed  bool
	Decided bool
	// VerdictYes and Confidence describe the verdict when Decided.
	VerdictYes   bool
	Confidence   float64
	EarlyStopped bool
	VotesSpent   int
	Declines     int
	// Invited is the full invitation list in order — it grows when a
	// decline pulled in a replacement; the caller feeds the new tail
	// into its queue.
	Invited []tasks.JurorView
}

// selectionFromView reads a created task's initial jury.
func selectionFromView(v tasks.View) selection {
	sel := selection{
		TaskID:       v.ID,
		IDs:          make([]string, len(v.Jurors)),
		PredictedJER: v.PredictedJER,
		PoolVersion:  v.PoolVersion,
	}
	for i, j := range v.Jurors {
		sel.IDs[i] = j.ID
		sel.Cost += j.Cost
	}
	return sel
}

// progressFromView flattens a task view into the backend-neutral shape.
func progressFromView(v tasks.View) taskProgress {
	p := taskProgress{
		Closed:     v.Status == tasks.StatusDecided || v.Status == tasks.StatusExpired,
		Decided:    v.Status == tasks.StatusDecided,
		VotesSpent: v.VotesSpent,
		Declines:   v.Declines,
		Invited:    v.Jurors,
	}
	if v.Verdict != nil {
		p.VerdictYes = v.Verdict.Answer
		p.Confidence = v.Verdict.Confidence
		p.EarlyStopped = v.Verdict.EarlyStopped
	}
	return p
}

// backend is the system under test: the live juror-pool plus selection
// service the closed loop drives. The local backend embeds the service's
// own store and engine in-process; the HTTP backend speaks the juryd wire
// protocol. Both expose identical semantics, which is what makes the
// in-process and HTTP trajectories comparable step by step.
type backend interface {
	// PutPool publishes the full juror set as the named pool.
	PutPool(ctx context.Context, name string, jurors []jury.Juror) error
	// Patch applies incremental updates (rate resets, churn, votes).
	Patch(ctx context.Context, name string, ups []pool.JurorUpdate) error
	// Select picks the minimum-JER jury from the named pool under the
	// scenario's strategy. Returns errStepShed when admission control
	// rejected the request past the retry budget.
	Select(ctx context.Context, name string, sc Scenario) (selection, error)
	// CreateTask opens a decision task on the named pool (task
	// lifecycle). Returns errStepShed like Select.
	CreateTask(ctx context.Context, name string, sc Scenario) (selection, error)
	// TaskAnswer applies one juror's ballot to an open task: a vote, or
	// a decline (the simulator's deterministic stand-in for a wall-clock
	// timeout), which pulls in the next-best replacement.
	TaskAnswer(ctx context.Context, id string, b tasks.Ballot) (taskProgress, error)
	// TaskVoteBatch applies a whole invitation round in order with the
	// semantics of tasks.Store.VoteBatch: items after the task closes are
	// skipped, and the returned progress reflects the task after the last
	// applied item. Results correspond 1:1 to ballots.
	TaskVoteBatch(ctx context.Context, id string, ballots []tasks.Ballot) ([]tasks.BallotResult, taskProgress, error)
	// DeletePool drops the pool (end-of-replication cleanup).
	DeletePool(ctx context.Context, name string) error
	// Close releases client resources.
	Close() error
}

// localBackend runs the service stack in-process: the memory-mode task
// store and shared JER engine juryd serves from, minus HTTP. Each method
// makes the calls the juryd handler behind it makes — tasks.Select, the
// store's pool writes, Create, Vote or Decline, and VoteBatch — plus type
// conversion, so a scenario replayed over HTTP walks an identical
// trajectory.
type localBackend struct {
	tasks *tasks.Store
}

// newLocalBackend builds an in-process backend with a fresh store. The
// engine is shared across replications (it is safe for concurrent use and
// its memo accelerates repeated JER work).
func newLocalBackend(eng *jury.Engine) *localBackend {
	ts, err := tasks.Open(tasks.Config{Engine: eng})
	if err != nil {
		// Memory-mode Open touches no disk; it cannot fail today. Guard
		// anyway so a future failure mode is loud.
		panic(fmt.Sprintf("simul: opening memory task store: %v", err))
	}
	return &localBackend{tasks: ts}
}

func (lb *localBackend) PutPool(_ context.Context, name string, jurors []jury.Juror) error {
	_, err := lb.tasks.PutPool(name, jurors)
	return err
}

func (lb *localBackend) Patch(_ context.Context, name string, ups []pool.JurorUpdate) error {
	_, err := lb.tasks.PatchPool(name, ups)
	return err
}

func (lb *localBackend) Select(ctx context.Context, name string, sc Scenario) (selection, error) {
	p, ok := lb.tasks.Pools().Get(name)
	if !ok {
		return selection{}, fmt.Errorf("simul: pool %q not in store", name)
	}
	js, err := tasks.Select(ctx, lb.tasks.Engine(), p.Sorted(), sc.Strategy, sc.Budget)
	if err != nil {
		return selection{}, err
	}
	sel := selection{
		IDs:          make([]string, len(js.Jurors)),
		PredictedJER: js.JER,
		Cost:         js.Cost,
		PoolVersion:  p.Version,
	}
	for i, j := range js.Jurors {
		sel.IDs[i] = j.ID
	}
	return sel, nil
}

func (lb *localBackend) CreateTask(ctx context.Context, name string, sc Scenario) (selection, error) {
	view, err := lb.tasks.Create(ctx, tasks.Spec{
		Pool:             name,
		Strategy:         sc.Strategy,
		Budget:           sc.Budget,
		TargetConfidence: sc.TargetConfidence,
	})
	if err != nil {
		return selection{}, err
	}
	return selectionFromView(view), nil
}

func (lb *localBackend) TaskAnswer(ctx context.Context, id string, b tasks.Ballot) (taskProgress, error) {
	if err := b.Check(); err != nil {
		return taskProgress{}, err
	}
	var (
		view tasks.View
		err  error
	)
	if b.Decline {
		view, err = lb.tasks.Decline(ctx, id, b.JurorID)
	} else {
		view, err = lb.tasks.Vote(ctx, id, b.JurorID, *b.Vote)
	}
	if err != nil {
		return taskProgress{}, err
	}
	return progressFromView(view), nil
}

func (lb *localBackend) TaskVoteBatch(ctx context.Context, id string, ballots []tasks.Ballot) ([]tasks.BallotResult, taskProgress, error) {
	results, view, err := lb.tasks.VoteBatch(ctx, id, ballots)
	if err != nil {
		return nil, taskProgress{}, err
	}
	return results, progressFromView(view), nil
}

func (lb *localBackend) DeletePool(_ context.Context, name string) error {
	_, err := lb.tasks.DeletePool(name)
	return err
}

func (lb *localBackend) Close() error { return nil }
