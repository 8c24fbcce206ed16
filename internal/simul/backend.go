package simul

import (
	"context"
	"errors"
	"fmt"

	"juryselect/internal/pool"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// selectOutcome is what a selection round-trip yields, whichever backend
// served it.
type selectOutcome struct {
	// IDs and EstRates are the selected jurors and the estimated error
	// rates the selection was computed over.
	IDs      []string
	EstRates []float64
	// PredictedJER is the JER of the selected jury under the estimates —
	// what the system believes its failure probability is.
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

// errStepShed reports that the service shed the selection request even
// after the backend's Retry-After backoff budget. The simulator records
// the step as shed and moves on — overload degrades coverage, never
// aborts the run.
var errStepShed = errors.New("simul: selection shed by admission control")

// invitee is one invited juror as the task lifecycle sees it: the ID to
// drive votes with and the estimated rate the posterior weighs.
type invitee struct {
	ID   string
	Rate float64
}

// taskOutcome is a created decision task.
type taskOutcome struct {
	ID string
	// Invited is the initial jury in invitation order.
	Invited []invitee
	// PredictedJER and Cost describe the initial selection.
	PredictedJER float64
	Cost         float64
	// PoolVersion is the snapshot the jury was selected from.
	PoolVersion uint64
	// Retried and LatencyNS mirror selectOutcome (HTTP backend only).
	Retried   int
	LatencyNS int64
}

// voteOp is one item of a TaskVoteBatch call: a vote or a decline.
type voteOp struct {
	JurorID string
	Vote    bool // meaningful only when Decline is false
	Decline bool
}

// voteResult is one batch item's outcome, mirroring the wire form:
// Applied means the store recorded it, Skipped means the task closed
// before the item's turn (expected under early stop), Err carries a
// per-item rejection.
type voteResult struct {
	Applied bool
	Skipped bool
	Err     string
}

// taskProgress is the task state after one vote or decline.
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
	// into its vote queue.
	Invited []invitee
}

// progressFromView flattens a task view into the backend-neutral shape.
func progressFromView(v tasks.View) taskProgress {
	p := taskProgress{
		Closed:     v.Status == tasks.StatusDecided || v.Status == tasks.StatusExpired,
		Decided:    v.Status == tasks.StatusDecided,
		VotesSpent: v.VotesSpent,
		Declines:   v.Declines,
		Invited:    make([]invitee, len(v.Jurors)),
	}
	for i, j := range v.Jurors {
		p.Invited[i] = invitee{ID: j.ID, Rate: j.ErrorRate}
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
	Select(ctx context.Context, name string, sc Scenario) (selectOutcome, error)
	// CreateTask opens a decision task on the named pool (task
	// lifecycle). Returns errStepShed like Select.
	CreateTask(ctx context.Context, name string, sc Scenario) (taskOutcome, error)
	// TaskVote records one juror's vote on an open task.
	TaskVote(ctx context.Context, id, juror string, voteYes bool) (taskProgress, error)
	// TaskDecline releases a non-responding juror (the simulator's
	// deterministic stand-in for a wall-clock timeout), pulling in the
	// next-best replacement.
	TaskDecline(ctx context.Context, id, juror string) (taskProgress, error)
	// TaskVoteBatch applies a whole invitation round in order with the
	// semantics of POST /v1/tasks/{id}/votes/batch: items after the task
	// closes are skipped, and the returned progress reflects the task
	// after the last applied item. Results correspond 1:1 to ops.
	TaskVoteBatch(ctx context.Context, id string, ops []voteOp) ([]voteResult, taskProgress, error)
	// DeletePool drops the pool (end-of-replication cleanup).
	DeletePool(ctx context.Context, name string) error
	// Close releases client resources.
	Close() error
}

// localBackend runs the service stack in-process: the same versioned
// copy-on-write pool store, memory-mode task store and shared JER
// engine juryd serves from, minus HTTP. Its Select mirrors
// internal/server.handleSelect's dispatch exactly, and its task ops are
// the very store methods the /v1/tasks handlers call, so a scenario
// replayed over HTTP walks an identical trajectory.
type localBackend struct {
	store *pool.Store
	tasks *tasks.Store
	eng   *jury.Engine
}

// newLocalBackend builds an in-process backend with a fresh store. The
// engine is shared across replications (it is safe for concurrent use and
// its memo accelerates repeated JER work). shards overrides the task
// store's shard count (zero = default); trajectories must not depend on
// it — see Options.TaskShards.
func newLocalBackend(eng *jury.Engine, shards int) *localBackend {
	ts, err := tasks.Open(tasks.Config{Engine: eng, Shards: shards})
	if err != nil {
		// Memory-mode Open touches no disk; it cannot fail today. Guard
		// anyway so a future failure mode is loud.
		panic(fmt.Sprintf("simul: opening memory task store: %v", err))
	}
	return &localBackend{store: ts.Pools(), tasks: ts, eng: eng}
}

func (lb *localBackend) PutPool(_ context.Context, name string, jurors []jury.Juror) error {
	_, err := lb.tasks.PutPool(name, jurors)
	return err
}

func (lb *localBackend) Patch(_ context.Context, name string, ups []pool.JurorUpdate) error {
	_, err := lb.tasks.PatchPool(name, ups)
	return err
}

func (lb *localBackend) CreateTask(ctx context.Context, name string, sc Scenario) (taskOutcome, error) {
	view, err := lb.tasks.Create(ctx, tasks.Spec{
		Pool:             name,
		Strategy:         sc.Strategy,
		Budget:           sc.Budget,
		TargetConfidence: sc.TargetConfidence,
	})
	if err != nil {
		return taskOutcome{}, err
	}
	out := taskOutcome{
		ID:           view.ID,
		Invited:      make([]invitee, len(view.Jurors)),
		PredictedJER: view.PredictedJER,
		PoolVersion:  view.PoolVersion,
	}
	for i, j := range view.Jurors {
		out.Invited[i] = invitee{ID: j.ID, Rate: j.ErrorRate}
		out.Cost += j.Cost
	}
	return out, nil
}

func (lb *localBackend) TaskVote(ctx context.Context, id, juror string, voteYes bool) (taskProgress, error) {
	view, err := lb.tasks.Vote(ctx, id, juror, voteYes)
	if err != nil {
		return taskProgress{}, err
	}
	return progressFromView(view), nil
}

func (lb *localBackend) TaskDecline(ctx context.Context, id, juror string) (taskProgress, error) {
	view, err := lb.tasks.Decline(ctx, id, juror)
	if err != nil {
		return taskProgress{}, err
	}
	return progressFromView(view), nil
}

// TaskVoteBatch mirrors internal/server.handleTaskVoteBatch exactly —
// sequential application, skip-after-close, per-item errors — so the
// in-process and HTTP backends report identical batch outcomes.
func (lb *localBackend) TaskVoteBatch(ctx context.Context, id string, ops []voteOp) ([]voteResult, taskProgress, error) {
	results := make([]voteResult, len(ops))
	var (
		view    tasks.View
		applied bool
		closed  bool
	)
	for i, op := range ops {
		if closed {
			results[i].Skipped = true
			continue
		}
		var err error
		if op.Decline {
			view, err = lb.tasks.Decline(ctx, id, op.JurorID)
		} else {
			view, err = lb.tasks.Vote(ctx, id, op.JurorID, op.Vote)
		}
		switch {
		case errors.Is(err, tasks.ErrTaskNotFound):
			return nil, taskProgress{}, err
		case errors.Is(err, tasks.ErrTaskClosed):
			results[i].Skipped = true
			closed = true
		case err != nil:
			results[i].Err = err.Error()
		default:
			applied = true
			results[i].Applied = true
			if view.Status == tasks.StatusDecided && view.Verdict != nil {
				closed = true
			}
		}
	}
	if !applied {
		v, err := lb.tasks.Get(id)
		if err != nil {
			return nil, taskProgress{}, err
		}
		view = v
	}
	return results, progressFromView(view), nil
}

func (lb *localBackend) Select(ctx context.Context, name string, sc Scenario) (selectOutcome, error) {
	pool, ok := lb.store.Get(name)
	if !ok {
		return selectOutcome{}, fmt.Errorf("simul: pool %q not in store", name)
	}
	var (
		sel jury.Selection
		err error
	)
	switch sc.Strategy {
	case StrategyPay:
		sel, err = lb.eng.SelectBudgetedContext(ctx, pool.Sorted(), sc.Budget)
	case StrategyExact:
		if len(pool.Sorted()) > jury.MaxExactCandidates {
			return selectOutcome{}, fmt.Errorf("simul: exact strategy accepts at most %d candidates, got %d",
				jury.MaxExactCandidates, len(pool.Sorted()))
		}
		sel, err = lb.eng.SelectExactContext(ctx, pool.Sorted(), sc.Budget)
	default: // altr
		sel, err = lb.eng.SelectAltruisticSnapshot(ctx, pool.Sorted())
	}
	if err != nil {
		return selectOutcome{}, err
	}
	return outcomeFromSelection(sel, pool.Version), nil
}

func (lb *localBackend) DeletePool(_ context.Context, name string) error {
	_, err := lb.tasks.DeletePool(name)
	return err
}

func (lb *localBackend) Close() error { return nil }

// outcomeFromSelection flattens a Selection into the backend-neutral
// outcome shape.
func outcomeFromSelection(sel jury.Selection, version uint64) selectOutcome {
	out := selectOutcome{
		IDs:          make([]string, len(sel.Jurors)),
		EstRates:     make([]float64, len(sel.Jurors)),
		PredictedJER: sel.JER,
		Cost:         sel.Cost,
		PoolVersion:  version,
	}
	for i, j := range sel.Jurors {
		out.IDs[i] = j.ID
		out.EstRates[i] = j.ErrorRate
	}
	return out
}
