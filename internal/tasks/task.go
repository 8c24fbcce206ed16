package tasks

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

// task is the store's internal task: an immutable header and the
// current state. id, seq, spec, poolVersion, predictedJER, createdAt,
// expiresAt, candidates and extra are fixed once the task is placed and
// safe to read lock-free. cur is the writers' state, guarded by the
// owning shard's mutex; snap is the published state. A published state
// is never written again: live mutations publish a fresh one every
// time, so Get, List and the sweeper's scan never take the shard lock,
// and render views from a state and the header on demand.
type task struct {
	id           string
	seq          uint64 // the sequence number id renders
	spec         Spec
	poolVersion  uint64
	predictedJER float64
	createdAt    time.Time // no monotonic reading: invite offsets are wall clock
	expiresAt    time.Time
	// candidates is the ε-sorted creation-snapshot view replacements are
	// drawn from (shared with the pool snapshot); extra holds the
	// invitees it lacks exactly. An invitee's juror index counts through
	// candidates, then extra.
	candidates []jury.Juror
	extra      []jury.Juror

	cur  *taskState
	snap atomic.Pointer[taskState]
}

// taskState is a task's mutable state: what a vote, a decline or an
// expiry changes.
type taskState struct {
	status   Status
	declines int
	post     estimate.VerdictPosterior
	verdict  *Verdict
	// jurors is the jury in selection order, then each replacement in
	// invite order.
	jurors []invitee
	// odd holds the invite times an offset from creation cannot carry
	// exactly: another zone offset, or more than ±292 years away.
	odd []time.Time
}

// invitee is one invited juror within a task, in 16 bytes.
type invitee struct {
	// at is the invite time in nanoseconds after the task's creation or,
	// when odd is set, its index in the state's odd times.
	at    int64
	juror uint32 // index into the task's candidates, then its extra jurors
	state uint8  // index into jurorStateCodes, as the snapshot writes it
	vote  uint8  // 0 none, 1 no, 2 yes, as the snapshot writes it
	odd   bool
}

// Invitee state codes: indexes into jurorStateCodes.
const (
	codeInvited uint8 = iota
	codeVoted
	codeDeclined
	codeTimedOut
)

// statusCodes and jurorStateCodes give the one-byte codes of statuses
// and invitee states: a value's index.
var (
	statusCodes     = [...]Status{StatusOpen, StatusAwaitingVotes, StatusDecided, StatusExpired}
	jurorStateCodes = [...]JurorState{JurorInvited, JurorVoted, JurorDeclined, JurorTimedOut}
)

// voteCode encodes a vote as an invitee carries it.
func voteCode(yes bool) uint8 {
	if yes {
		return 2
	}
	return 1
}

// juror returns the juror e names.
func (t *task) juror(e invitee) *jury.Juror {
	if k := int(e.juror); k < len(t.candidates) {
		return &t.candidates[k]
	}
	return &t.extra[int(e.juror)-len(t.candidates)]
}

// resolve returns the juror index an invitee of j carries: j's position
// in the candidate view when the view holds j exactly, as it does unless
// the pool moved between selection and creation or a restored task pins
// no view; otherwise a position past the view, in extra, which resolve
// extends. Only an unpublished task resolves.
func (t *task) resolve(j jury.Juror) uint32 {
	c := t.candidates
	k, ok := slices.BinarySearchFunc(c, j, func(c, j jury.Juror) int {
		return cmp.Or(cmp.Compare(c.ErrorRate, j.ErrorRate), strings.Compare(c.ID, j.ID))
	})
	// A match has j's ID; ε and cost must match to the bit (-0 is not 0).
	if ok && math.Float64bits(c[k].ErrorRate) == math.Float64bits(j.ErrorRate) &&
		math.Float64bits(c[k].Cost) == math.Float64bits(j.Cost) {
		return uint32(k)
	}
	t.extra = append(t.extra, j)
	return uint32(len(c) + len(t.extra) - 1)
}

// pin moves a restored task's invitees, which index its own juror list,
// onto the candidate view it pins; extra keeps only those the view
// lacks.
func (t *task) pin(candidates []jury.Juror) {
	own := t.extra
	t.candidates, t.extra = candidates, nil
	for i := range t.cur.jurors {
		e := &t.cur.jurors[i]
		e.juror = t.resolve(own[e.juror])
	}
}

// invite returns an invitee of juror k invited at `at`: the offset from
// creation when createdAt.Add of it gives the same instant in the same
// zone offset, which is all a rendering or a snapshot keeps; otherwise
// at's index in st.odd, which invite extends. st must be unpublished.
func (t *task) invite(st *taskState, k uint32, at time.Time) invitee {
	at = at.Round(0)
	d := at.Sub(t.createdAt)
	back := t.createdAt.Add(d)
	_, want := at.Zone()
	if _, got := back.Zone(); got == want && back.Equal(at) {
		return invitee{at: int64(d), juror: k}
	}
	st.odd = append(st.odd[:len(st.odd):len(st.odd)], at) // copied: a published state may share it
	return invitee{at: int64(len(st.odd) - 1), juror: k, odd: true}
}

// invitedAt returns e's invite time.
func (t *task) invitedAt(st *taskState, e invitee) time.Time {
	if e.odd {
		return st.odd[e.at]
	}
	return t.createdAt.Add(time.Duration(e.at))
}

// edit readies t.cur for a mutation that leaves n ≥ len(jurors)
// invitees and returns it. A published state is copied first, and so is
// an invitee array a replacement grows: by exactly one, with no append
// slack. Replay publishes only once it is done, so there every mutation
// but a replacement edits in place.
func (t *task) edit(n int) *taskState {
	st := t.cur
	if st == t.snap.Load() {
		next := *st
		st = &next
		t.cur = st
	} else if n == len(st.jurors) {
		return st
	}
	jurors := make([]invitee, n)
	copy(jurors, st.jurors)
	st.jurors = jurors
	return st
}

// publish makes the task's current state the one lock-free readers see.
// Callers hold the task's shard mutex (or are single-threaded, during
// recovery).
func publish(t *task) { t.snap.Store(t.cur) }

// find returns the index of the invited juror with the given ID, or -1.
// A task invites at most MaxInvites jurors, so a scan is cheap.
func (t *task) find(id string) int {
	for i, e := range t.cur.jurors {
		if t.juror(e).ID == id {
			return i
		}
	}
	return -1
}

// pending counts invited jurors who have not yet answered or been
// released.
func (st *taskState) pending() int {
	n := 0
	for _, e := range st.jurors {
		if e.state == codeInvited {
			n++
		}
	}
	return n
}

// replacement picks the juror to invite once juror released is let go
// and returns its index in the candidate view: the lowest-ε candidate
// of the task's creation snapshot not yet invited and, under the pay
// strategy, fitting the budget the jurors still on the task leave.
// Deterministic — the candidate view is ε-sorted and immutable — so WAL
// replay re-derives the same invitation.
func (t *task) replacement(released int) (int, bool) {
	jurors := t.cur.jurors
	if len(jurors) >= t.spec.MaxInvites {
		return 0, false
	}
	pay := t.spec.Strategy == StrategyPay
	var remaining float64
	if pay {
		// The committed cost sums the jurors still on the task (invited
		// or voted) in invite order.
		committed := 0.0
		for i, e := range jurors {
			if i != released && (e.state == codeInvited || e.state == codeVoted) {
				committed += t.juror(e).Cost
			}
		}
		remaining = t.spec.Budget - committed
	}
	invited := make(map[string]struct{}, len(jurors))
	for _, e := range jurors {
		invited[t.juror(e).ID] = struct{}{}
	}
	for k, c := range t.candidates {
		if _, ok := invited[c.ID]; ok || pay && c.Cost > remaining {
			continue
		}
		return k, true
	}
	return 0, false
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

// JurorView is one invited juror within a task, as served.
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

// view renders the task's external state as st holds it. The view owns
// its juror array and verdict: a later mutation leaves it unchanged.
func (t *task) view(st *taskState) View {
	v := View{
		ID:               t.id,
		Status:           st.status,
		Pool:             t.spec.Pool,
		PoolVersion:      t.poolVersion,
		Question:         t.spec.Question,
		Strategy:         t.spec.Strategy,
		Budget:           t.spec.Budget,
		TargetConfidence: t.spec.TargetConfidence,
		PredictedJER:     t.predictedJER,
		CreatedAt:        t.createdAt,
		ExpiresAt:        t.expiresAt,
		Jurors:           make([]JurorView, len(st.jurors)),
		Invites:          len(st.jurors),
		VotesSpent:       st.post.Votes(),
		Declines:         st.declines,
		PYes:             st.post.PYes(),
	}
	for i, e := range st.jurors {
		j := t.juror(e)
		v.Jurors[i] = JurorView{ID: j.ID, ErrorRate: j.ErrorRate, Cost: j.Cost,
			State: jurorStateCodes[e.state], InvitedAt: t.invitedAt(st, e)}
		if e.vote != 0 {
			v.Jurors[i].Vote = sharedBool(e.vote == 2)
		}
	}
	if vd := st.verdict; vd != nil {
		v.Verdict = &VerdictView{
			Answer:       vd.Answer,
			Confidence:   vd.Confidence,
			EarlyStopped: vd.EarlyStopped,
			DecidedAt:    vd.DecidedAt,
		}
	}
	return v
}
