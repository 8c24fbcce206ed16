package lifecycle

import (
	"time"

	"juryselect/internal/obs"
)

// Span is one step of a task's life. DurationNS is span-specific: the
// journaled invitation→vote latency on vote spans, invitation→release
// on decline/timeout spans (recomputed from journaled instants, so
// replay renders the identical value), creation→close on the close
// span, and zero on create/invite spans (replacements are invited at
// the instant of the release they answer — the preceding span's
// duration is the gap). SinceCreateNS places every span on the task's
// own clock.
type Span struct {
	Kind          string    `json:"kind"` // create|invite|vote|decline|timeout|close
	At            time.Time `json:"at"`
	SinceCreateNS int64     `json:"since_create_ns"`
	DurationNS    int64     `json:"duration_ns,omitempty"`
	Juror         string    `json:"juror,omitempty"`
	ErrorRate     float64   `json:"error_rate,omitempty"`
	Vote          *bool     `json:"vote,omitempty"`
}

// Timeline is one task's rendered life: the creation header (with the
// pool version selection ran against, pinned at creation), every
// subsequent juror interaction in application order, and the terminal
// outcome. Fingerprint is the SHA-256 of the timeline's canonical JSON
// with the Fingerprint field empty — byte equality across a restart is
// the replay-identity acceptance check.
type Timeline struct {
	Task             string    `json:"task"`
	Pool             string    `json:"pool"`
	Strategy         string    `json:"strategy"`
	PoolVersion      uint64    `json:"pool_version"`
	PredictedJER     float64   `json:"predicted_jer"`
	TargetConfidence float64   `json:"target_confidence"`
	CreatedAt        time.Time `json:"created_at"`
	Outcome          string    `json:"outcome"` // open|decided|expired
	Answer           *bool     `json:"answer,omitempty"`
	Confidence       float64   `json:"confidence,omitempty"`
	EarlyStopped     bool      `json:"early_stopped,omitempty"`

	Invites  int `json:"invites"`
	Votes    int `json:"votes"`
	Declines int `json:"declines"`
	Timeouts int `json:"timeouts"`

	// TimeToFirstVoteNS and TimeToVerdictNS are -1 while not yet
	// reached (no votes / still open).
	TimeToFirstVoteNS int64 `json:"time_to_first_vote_ns"`
	TimeToVerdictNS   int64 `json:"time_to_verdict_ns"`

	Spans       []Span `json:"spans"`
	Fingerprint string `json:"fingerprint"`
}

// Timeline renders the task's life, or ok=false if the engine never saw
// it open (unknown ID, beyond the compaction horizon, or evicted).
func (e *Engine) Timeline(id string) (*Timeline, bool) {
	e.mu.Lock()
	r := e.records[id]
	if r == nil {
		e.mu.Unlock()
		return nil, false
	}
	// Copy the record's mutable parts under the lock; rendering below is
	// pure. The events slice is append-only, so a length-pinned view is
	// a consistent prefix even if the live tail grows concurrently.
	rec := *r
	rec.events = r.events[:len(r.events):len(r.events)]
	e.mu.Unlock()
	return renderTimeline(&rec), true
}

// renderTimeline builds the wire form from a record copy. Deterministic
// in the record alone.
func renderTimeline(r *taskRecord) *Timeline {
	tl := &Timeline{
		Task:              r.id,
		Pool:              r.pool,
		Strategy:          r.strategy,
		PoolVersion:       r.poolVersion,
		PredictedJER:      r.predictedJER,
		TargetConfidence:  r.targetConf,
		CreatedAt:         r.createdAt,
		Outcome:           outcomeOf(r),
		Invites:           len(r.jury),
		TimeToFirstVoteNS: r.firstVoteNS,
		TimeToVerdictNS:   -1,
		Spans:             make([]Span, 0, len(r.events)+2),
	}
	if r.closed && r.decided {
		answer := r.answer
		tl.Answer = &answer
		tl.Confidence = r.confidence
		tl.EarlyStopped = r.earlyStopped
	}

	tl.Spans = append(tl.Spans, Span{Kind: "create", At: r.createdAt})
	// invitedAt tracks each juror's outstanding invitation instant so
	// decline/timeout spans can carry invitation → release durations.
	invitedAt := make(map[string]time.Time, len(r.jury))
	for _, j := range r.jury {
		invitedAt[j.ID] = r.createdAt
	}
	for i := range r.events {
		te := &r.events[i]
		sp := Span{
			At:            te.at,
			SinceCreateNS: te.at.Sub(r.createdAt).Nanoseconds(),
			Juror:         te.juror,
			ErrorRate:     te.eps,
		}
		switch te.kind {
		case evInvite:
			sp.Kind = "invite"
			tl.Invites++
			invitedAt[te.juror] = te.at
		case evVote:
			sp.Kind = "vote"
			tl.Votes++
			vote := te.vote
			sp.Vote = &vote
			sp.DurationNS = te.latencyNS
		case evDecline, evTimeout:
			if te.kind == evDecline {
				sp.Kind = "decline"
				tl.Declines++
			} else {
				sp.Kind = "timeout"
				tl.Timeouts++
			}
			if at, ok := invitedAt[te.juror]; ok {
				sp.DurationNS = te.at.Sub(at).Nanoseconds()
			}
		}
		tl.Spans = append(tl.Spans, sp)
	}
	if r.closed {
		ttv := r.closedAt.Sub(r.createdAt).Nanoseconds()
		tl.TimeToVerdictNS = ttv
		tl.Spans = append(tl.Spans, Span{
			Kind:          "close",
			At:            r.closedAt,
			SinceCreateNS: ttv,
			DurationNS:    ttv,
		})
	}

	tl.Fingerprint = obs.Fingerprint(tl)
	return tl
}
