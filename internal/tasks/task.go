package tasks

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"juryselect/internal/estimate"
	"juryselect/jury"
)

// Status is a task's lifecycle state.
type Status string

const (
	// StatusOpen: jury invited, no votes yet.
	StatusOpen Status = "open"
	// StatusAwaitingVotes: at least one vote in, verdict not yet reached.
	StatusAwaitingVotes Status = "awaiting_votes"
	// StatusDecided: a verdict was emitted (early stop, or all votes in
	// with decisive evidence).
	StatusDecided Status = "decided"
	// StatusExpired: the task closed without a verdict — deadline passed,
	// or the jury was exhausted with perfectly balanced (or no) evidence.
	StatusExpired Status = "expired"
)

// closed reports whether the status is terminal.
func (s Status) closed() bool { return s == StatusDecided || s == StatusExpired }

// JurorState is one invited juror's standing within a task.
type JurorState string

const (
	// JurorInvited: asked, no answer yet.
	JurorInvited JurorState = "invited"
	// JurorVoted: answered.
	JurorVoted JurorState = "voted"
	// JurorDeclined: explicitly refused; released from the task.
	JurorDeclined JurorState = "declined"
	// JurorTimedOut: never answered within the juror timeout; released.
	JurorTimedOut JurorState = "timed_out"
)

// Strategy names. Spec.Strategy accepts altr and pay; Select also runs
// exact.
const (
	StrategyAltr  = "altr"
	StrategyPay   = "pay"
	StrategyExact = "exact"
)

// Select runs the solver a strategy names: AltrALG for StrategyAltr, the
// PayALG greedy for StrategyPay and exact enumeration for StrategyExact,
// the last two under budget. StrategyAltr requires cands validated and
// ε-sorted, as a pool snapshot's Sorted() is. Task creation, the select
// endpoint and the simulator's in-process backend all select through it.
func Select(ctx context.Context, eng *jury.Engine, cands []jury.Juror, strategy string, budget float64) (jury.Selection, error) {
	switch strategy {
	case StrategyAltr:
		return eng.SelectAltruisticSnapshot(ctx, cands)
	case StrategyPay:
		return eng.SelectBudgetedContext(ctx, cands, budget)
	case StrategyExact:
		return eng.SelectExactContext(ctx, cands, budget)
	}
	return jury.Selection{}, fmt.Errorf("%w: unknown strategy %q", ErrInvalidSpec, strategy)
}

// Lifecycle errors surfaced on the task endpoints.
var (
	// ErrInvalidSpec reports a task spec that failed validation; the
	// serving layer maps it to 400.
	ErrInvalidSpec = errors.New("tasks: invalid spec")
	// ErrTaskNotFound reports a request against an unknown task ID.
	ErrTaskNotFound = errors.New("tasks: task not found")
	// ErrTaskClosed reports a vote or decline on a decided/expired task.
	ErrTaskClosed = errors.New("tasks: task already closed")
	// ErrNotInvited reports a vote by a juror the task never invited.
	ErrNotInvited = errors.New("tasks: juror not invited")
	// ErrAlreadyVoted reports a second vote by the same juror.
	ErrAlreadyVoted = errors.New("tasks: juror already voted")
	// ErrJurorReleased reports a vote by a juror already released
	// (declined or timed out) from the task.
	ErrJurorReleased = errors.New("tasks: juror released from task")
)

// Spec is a decision task's immutable request parameters. The zero value
// of every optional field selects the store default; normalizeSpec is
// applied — and the normalized spec journaled — at creation, so replay
// never depends on defaults changing across versions.
type Spec struct {
	// Pool names the juror pool to select from.
	Pool string `json:"pool"`
	// Question is the task's free-text payload (opaque to the store).
	Question string `json:"question,omitempty"`
	// Strategy is "altr" (default) or "pay".
	Strategy string `json:"strategy,omitempty"`
	// Budget is the pay model's budget B (pay strategy only). It also
	// caps replacements: an invited jury never exceeds it.
	Budget float64 `json:"budget,omitempty"`
	// TargetConfidence is the posterior confidence that closes the task
	// early, in (0.5, 1]. Exactly 1 disables early stop: the task
	// collects every invited vote (the fixed-jury baseline).
	TargetConfidence float64 `json:"target_confidence,omitempty"`
	// MaxInvites caps total invitations including the initial jury
	// (bounding replacement churn). Zero selects 2× the initial jury.
	MaxInvites int `json:"max_invites,omitempty"`
	// JurorTimeout releases an invited juror who has not answered.
	JurorTimeout time.Duration `json:"juror_timeout,omitempty"`
	// ExpiresIn closes the whole task without a verdict.
	ExpiresIn time.Duration `json:"expires_in,omitempty"`
}

// Verdict is a decided task's outcome.
type Verdict struct {
	Answer     bool
	Confidence float64
	// EarlyStopped reports that the posterior crossed the target before
	// every invited juror had answered — the votes the sequential policy
	// did not spend.
	EarlyStopped bool
	DecidedAt    time.Time
}

// task is the store's internal task state. Mutable fields are guarded
// by the owning shard's mutex; id, seq, spec, createdAt, expiresAt,
// poolVersion, predictedJER and candidates are immutable after creation
// and safe to read lock-free. snap is the published copy-on-write view:
// every live mutation publishes a fresh View, so Get, List and the
// sweeper's scan never take the shard lock.
type task struct {
	id           string
	seq          uint64 // the sequence number id renders
	spec         Spec
	status       Status
	poolVersion  uint64
	predictedJER float64
	createdAt    time.Time
	expiresAt    time.Time
	// jurors is the task's one juror array: the jury, then each
	// replacement in invite order. The published view shares it; shared
	// records that, and edit copies a shared array before a mutation.
	jurors   []JurorView
	shared   bool
	post     estimate.VerdictPosterior
	verdict  *Verdict
	declines int
	// candidates is the ε-sorted creation-snapshot view replacements are
	// drawn from (immutable, shared with the pool snapshot).
	candidates []jury.Juror

	// snap is the lock-free published view. A published view and its
	// juror array are never written again.
	snap atomic.Pointer[View]
}

// edit readies jurors for a mutation that leaves n ≥ len(jurors) of
// them. Published arrays are immutable, so a shared array is copied
// first, and so is one a replacement grows: by exactly one juror, with
// no append slack. Replay publishes only once it is done, so there every
// mutation but a replacement edits in place.
func (t *task) edit(n int) {
	if !t.shared && n == len(t.jurors) {
		return
	}
	next := make([]JurorView, n)
	copy(next, t.jurors)
	t.jurors, t.shared = next, false
}

// find returns the index of the invited juror with the given ID, or -1.
// A task invites at most MaxInvites jurors, so a scan is cheap.
func (t *task) find(id string) int {
	for i := range t.jurors {
		if t.jurors[i].ID == id {
			return i
		}
	}
	return -1
}

// pending counts invited jurors who have not yet answered or been
// released.
func (t *task) pending() int {
	n := 0
	for _, j := range t.jurors {
		if j.State == JurorInvited {
			n++
		}
	}
	return n
}

// replacement picks the juror to invite once juror released is let go:
// the lowest-ε candidate of the task's creation snapshot not yet invited
// and, under the pay strategy, fitting the budget the jurors still on
// the task leave. Deterministic — the candidate view is ε-sorted and
// immutable — so WAL replay re-derives the same invitation.
func (t *task) replacement(released int) (jury.Juror, bool) {
	if len(t.jurors) >= t.spec.MaxInvites {
		return jury.Juror{}, false
	}
	pay := t.spec.Strategy == StrategyPay
	var remaining float64
	if pay {
		// The committed cost sums the jurors still on the task (invited
		// or voted) in invite order.
		committed := 0.0
		for i, j := range t.jurors {
			if i != released && (j.State == JurorInvited || j.State == JurorVoted) {
				committed += j.Cost
			}
		}
		remaining = t.spec.Budget - committed
	}
	invited := make(map[string]struct{}, len(t.jurors))
	for _, j := range t.jurors {
		invited[j.ID] = struct{}{}
	}
	for _, c := range t.candidates {
		if _, ok := invited[c.ID]; ok || pay && c.Cost > remaining {
			continue
		}
		return c, true
	}
	return jury.Juror{}, false
}

// normalizeSpec fills spec defaults from the store configuration and
// validates the result.
func (s *Store) normalizeSpec(spec Spec) (Spec, error) {
	if spec.Pool == "" {
		return spec, fmt.Errorf("%w: spec must name a pool", ErrInvalidSpec)
	}
	if spec.Strategy == "" {
		spec.Strategy = StrategyAltr
	}
	switch spec.Strategy {
	case StrategyAltr:
		if spec.Budget != 0 {
			return spec, fmt.Errorf("%w: budget applies only to strategy %q", ErrInvalidSpec, StrategyPay)
		}
	case StrategyPay:
		if spec.Budget < 0 || math.IsNaN(spec.Budget) {
			return spec, fmt.Errorf("%w: budget %g must be non-negative", ErrInvalidSpec, spec.Budget)
		}
	default:
		return spec, fmt.Errorf("%w: unknown strategy %q (want %s or %s)", ErrInvalidSpec, spec.Strategy, StrategyAltr, StrategyPay)
	}
	if spec.TargetConfidence == 0 {
		spec.TargetConfidence = estimate.DefaultTargetConfidence
	}
	if math.IsNaN(spec.TargetConfidence) || spec.TargetConfidence <= 0.5 || spec.TargetConfidence > 1 {
		return spec, fmt.Errorf("%w: target_confidence %g outside (0.5, 1]", ErrInvalidSpec, spec.TargetConfidence)
	}
	if spec.MaxInvites < 0 {
		return spec, fmt.Errorf("%w: max_invites %d must be non-negative", ErrInvalidSpec, spec.MaxInvites)
	}
	if spec.JurorTimeout == 0 {
		spec.JurorTimeout = s.defaultJurorTimeout
	}
	if spec.JurorTimeout < 0 {
		return spec, fmt.Errorf("%w: juror_timeout must be positive", ErrInvalidSpec)
	}
	if spec.ExpiresIn == 0 {
		spec.ExpiresIn = s.defaultExpiry
	}
	if spec.ExpiresIn < 0 {
		return spec, fmt.Errorf("%w: expires_in must be positive", ErrInvalidSpec)
	}
	return spec, nil
}

// JurorView is one invited juror within a task, as stored and as served.
// ErrorRate and Cost are the juror's estimate and payment requirement at
// invitation time (the pool may drift afterwards; the task's posterior
// arithmetic stays pinned to what selection saw). Vote is set once State
// is JurorVoted.
type JurorView struct {
	ID        string     `json:"id"`
	ErrorRate float64    `json:"error_rate"`
	Cost      float64    `json:"cost,omitempty"`
	State     JurorState `json:"state"`
	Vote      *bool      `json:"vote,omitempty"`
	InvitedAt time.Time  `json:"invited_at"`
}

// VerdictView is the wire/snapshot form of a verdict.
type VerdictView struct {
	Answer       bool      `json:"answer"`
	Confidence   float64   `json:"confidence"`
	EarlyStopped bool      `json:"early_stopped,omitempty"`
	DecidedAt    time.Time `json:"decided_at"`
}

// View is the complete externally visible state of a task: the shape the
// HTTP API serves and the crash-recovery tests compare byte for byte.
type View struct {
	ID               string       `json:"id"`
	Status           Status       `json:"status"`
	Pool             string       `json:"pool"`
	PoolVersion      uint64       `json:"pool_version"`
	Question         string       `json:"question,omitempty"`
	Strategy         string       `json:"strategy"`
	Budget           float64      `json:"budget,omitempty"`
	TargetConfidence float64      `json:"target_confidence"`
	PredictedJER     float64      `json:"predicted_jer"`
	CreatedAt        time.Time    `json:"created_at"`
	ExpiresAt        time.Time    `json:"expires_at"`
	Jurors           []JurorView  `json:"jurors"`
	Invites          int          `json:"invites"`
	VotesSpent       int          `json:"votes_spent"`
	Declines         int          `json:"declines,omitempty"`
	PYes             float64      `json:"p_yes"`
	Verdict          *VerdictView `json:"verdict,omitempty"`
}

// Ballot is one juror's answer to an invitation, a vote or a decline: the
// body of POST /v1/tasks/{id}/votes and one item of VoteBatch.
type Ballot struct {
	JurorID string `json:"juror_id"`
	Vote    *bool  `json:"vote,omitempty"`
	Decline bool   `json:"decline,omitempty"`
}

// Malformed-ballot errors. Their text is the whole message, so a single
// vote's 400 and a batch item's error read the same.
var (
	errNoJuror        = errors.New("juror_id must be set")
	errVoteAndDecline = errors.New("vote and decline are mutually exclusive")
	errNoVote         = errors.New("body must carry vote or decline")
)

// Check reports why the ballot is malformed, or nil: it must name a
// juror and carry exactly one of a vote and a decline.
func (b Ballot) Check() error {
	switch {
	case b.JurorID == "":
		return errNoJuror
	case b.Decline && b.Vote != nil:
		return errVoteAndDecline
	case !b.Decline && b.Vote == nil:
		return errNoVote
	}
	return nil
}

// BallotResult is one VoteBatch item's outcome. Exactly one of Applied,
// Skipped and Error describes it. Skipped marks a ballot that arrived
// after the task closed, e.g. after an early stop decided it mid-batch:
// expected under the paper's voting model, not a failure.
type BallotResult struct {
	JurorID string `json:"juror_id"`
	Applied bool   `json:"applied,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
	Error   string `json:"error,omitempty"`
}

// view renders the task's external state; it shares the juror array.
// Callers hold the task's shard mutex (or are single-threaded, during
// recovery).
func (t *task) view() View {
	v := View{
		ID:               t.id,
		Status:           t.status,
		Pool:             t.spec.Pool,
		PoolVersion:      t.poolVersion,
		Question:         t.spec.Question,
		Strategy:         t.spec.Strategy,
		Budget:           t.spec.Budget,
		TargetConfidence: t.spec.TargetConfidence,
		PredictedJER:     t.predictedJER,
		CreatedAt:        t.createdAt,
		ExpiresAt:        t.expiresAt,
		Jurors:           t.jurors,
		Invites:          len(t.jurors),
		VotesSpent:       t.post.Votes(),
		Declines:         t.declines,
		PYes:             t.post.PYes(),
	}
	if t.verdict != nil {
		v.Verdict = &VerdictView{
			Answer:       t.verdict.Answer,
			Confidence:   t.verdict.Confidence,
			EarlyStopped: t.verdict.EarlyStopped,
			DecidedAt:    t.verdict.DecidedAt,
		}
	}
	return v
}
