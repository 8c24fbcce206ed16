package lifecycle

import (
	"sort"

	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// AggregateRow is one (strategy, outcome) latency bucket: how many
// tasks closed that way, what they spent, and the three lifecycle
// distributions — creation→verdict, creation→first-vote, and per-vote
// invitation→vote.
type AggregateRow struct {
	Strategy        string      `json:"strategy"`
	Outcome         string      `json:"outcome"`
	Tasks           int64       `json:"tasks"`
	EarlyStopped    int64       `json:"early_stopped"`
	Votes           int64       `json:"votes"`
	Invites         int64       `json:"invites"`
	Declines        int64       `json:"declines"`
	Timeouts        int64       `json:"timeouts"`
	TimeToVerdict   obs.Summary `json:"time_to_verdict"`
	TimeToFirstVote obs.Summary `json:"time_to_first_vote"`
	InviteToVote    obs.Summary `json:"invite_to_vote"`
}

// Snapshot is the engine's rendered aggregate state. Derived from
// order-invariant integer state over sorted keys, so two engines that
// consumed the same event multiset render byte-identical JSON; that is
// what Fingerprint hashes and the live≡replay checks compare.
type Snapshot struct {
	tasks.Totals
	Replacements      int64          `json:"replacements"`
	UnknownTaskEvents int64          `json:"unknown_task_events"`
	TimelinesRetained int64          `json:"timelines_retained"`
	TimelinesEvicted  int64          `json:"timelines_evicted"`
	Aggregates        []AggregateRow `json:"aggregates"`
	Fingerprint       string         `json:"fingerprint"`
}

// Stats is the cheap counter block for /metrics: no maps walked, no
// quantiles computed.
type Stats struct {
	tasks.Totals
	Replacements      int64 `json:"replacements"`
	UnknownTaskEvents int64 `json:"unknown_task_events"`
	TimelinesRetained int64 `json:"timelines_retained"`
	TimelinesEvicted  int64 `json:"timelines_evicted"`
}

// Stats returns the counter block.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Totals:            e.tally.Totals,
		Replacements:      e.tally.Replacements,
		UnknownTaskEvents: e.tally.Unknown,
		TimelinesRetained: int64(len(e.records)),
		TimelinesEvicted:  e.evicted,
	}
}

// Snapshot renders the aggregate state deterministically and stamps its
// fingerprint: the SHA-256 of the snapshot's canonical JSON with the
// Fingerprint field empty.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{
		Totals:            e.tally.Totals,
		Replacements:      e.tally.Replacements,
		UnknownTaskEvents: e.tally.Unknown,
		TimelinesRetained: int64(len(e.records)),
		TimelinesEvicted:  e.evicted,
		Aggregates:        make([]AggregateRow, 0, len(e.aggs)),
	}
	keys := make([]aggKey, 0, len(e.aggs))
	for k := range e.aggs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, k int) bool {
		if keys[i].strategy != keys[k].strategy {
			return keys[i].strategy < keys[k].strategy
		}
		return keys[i].outcome < keys[k].outcome
	})
	for _, k := range keys {
		a := e.aggs[k]
		ttv, ttfv, iv := a.ttv.Snapshot(), a.ttfv.Snapshot(), a.inviteVote.Snapshot()
		s.Aggregates = append(s.Aggregates, AggregateRow{
			Strategy:        k.strategy,
			Outcome:         k.outcome,
			Tasks:           a.tasks,
			EarlyStopped:    a.earlyStopped,
			Votes:           a.votes,
			Invites:         a.invites,
			Declines:        a.declines,
			Timeouts:        a.timeouts,
			TimeToVerdict:   ttv.Summary(),
			TimeToFirstVote: ttfv.Summary(),
			InviteToVote:    iv.Summary(),
		})
	}
	s.Fingerprint = obs.Fingerprint(s)
	return s
}
