package tasks

import "time"

// The task event stream is the store's decision-level observability
// feed: one Event per semantic state change (task opened, juror invited,
// vote recorded, juror released, task closed), emitted from inside the
// same apply functions that execute both live mutations and WAL replay.
// That placement is the whole contract: a sink attached via
// Config.Events before Open sees the identical event sequence whether
// the store is serving live traffic or replaying the journal, so any
// order-invariant reduction over the stream (internal/insight) is
// rebuildable from the WAL alone.
//
// Delivery guarantees:
//
//   - Per task, events arrive in application order (live emission holds
//     the task's shard mutex; replay is single-threaded in WAL order).
//   - Across tasks, live delivery interleaves arbitrarily — shards
//     mutate concurrently — while replay delivers in global WAL order.
//     A sink that must match replay state bit-for-bit therefore has to
//     be order-invariant across tasks (commutative integer updates).
//   - Events for tasks restored from a compaction snapshot are NOT
//     re-emitted: compaction folds history the journal no longer
//     carries. A sink rebuilt by replay covers the retained WAL horizon
//     only (votes on snapshot-restored tasks still arrive, prefixed by
//     no TaskCreated — sinks should ignore tasks they never saw open;
//     Tally below encodes the rule for the counts every sink reports).
//
// Sinks are called synchronously under the shard mutex and must not
// call back into the Store.

// EventType discriminates Event payloads.
type EventType uint8

const (
	// EvTaskCreated: a task opened with its initial jury invited.
	EvTaskCreated EventType = iota + 1
	// EvJurorInvited: a replacement juror was invited after a release.
	EvJurorInvited
	// EvVoteRecorded: an invited juror's vote was applied.
	EvVoteRecorded
	// EvJurorReleased: an invited juror declined or timed out.
	EvJurorReleased
	// EvTaskClosed: the task reached a terminal status.
	EvTaskClosed
)

// EventJuror is one invited juror within a TaskCreated event: the ID and
// the error-rate estimate selection pinned at invitation time.
type EventJuror struct {
	ID        string
	ErrorRate float64
}

// Event is one task state change. Fields beyond Type/Task/At are
// populated per type; the struct is passed by value and, except for the
// Jury slice on TaskCreated, allocation-free.
type Event struct {
	Type EventType
	Task string
	At   time.Time

	// TaskCreated.
	Pool             string
	Strategy         string
	PredictedJER     float64
	TargetConfidence float64
	// PoolVersion is the pool version selection ran against, pinned in
	// the create record — a timeline names the exact pool state that
	// chose its jury without a lookup racing subsequent patches.
	PoolVersion uint64
	Jury        []EventJuror

	// JurorInvited, VoteRecorded, JurorReleased.
	Juror     string
	ErrorRate float64
	// Vote and LatencyNS (invitation → vote, from journaled timestamps,
	// so replay recomputes the identical value) are set on VoteRecorded.
	Vote      bool
	LatencyNS int64
	// Timeout distinguishes a juror-timeout release from an explicit
	// decline (JurorReleased).
	Timeout bool

	// TaskClosed.
	Decided      bool
	Answer       bool
	Confidence   float64
	EarlyStopped bool
}

// EventSink consumes the task event stream. Implementations must be
// safe for concurrent use (live events arrive from many shards at once)
// and must not call back into the emitting Store.
type EventSink interface {
	TaskEvent(ev Event)
}

// Totals are the task-level counts every derived view reports. Field
// order is JSON key order: views embed Totals first in their Stats and
// Snapshot types.
type Totals struct {
	Events       int64 `json:"events"`
	TasksCreated int64 `json:"tasks_created"`
	TasksDecided int64 `json:"tasks_decided"`
	TasksExpired int64 `json:"tasks_expired"`
	TasksOpen    int64 `json:"tasks_open"`
	Votes        int64 `json:"votes"`
	Declines     int64 `json:"declines"`
	Timeouts     int64 `json:"timeouts"`
}

// Tally counts a sink's Totals, the replacement invites it saw, and the
// events it got for tasks it never saw open (Unknown). Such a task's
// invites, votes and releases still count; its close does not, since the
// sink never counted it open. Every update is an integer increment, so
// a tally is order-invariant across tasks. It is not safe for concurrent
// use: sinks call Observe under their own lock.
type Tally struct {
	Totals
	Replacements int64
	Unknown      int64
}

// Observe counts one event. known reports whether the sink saw the
// task's TaskCreated; a TaskCreated itself ignores it.
func (t *Tally) Observe(ev Event, known bool) {
	t.Events++
	if ev.Type == EvTaskCreated {
		t.TasksCreated++
		t.TasksOpen++
		return
	}
	if !known {
		t.Unknown++
	}
	switch ev.Type {
	case EvJurorInvited:
		t.Replacements++
	case EvVoteRecorded:
		t.Votes++
	case EvJurorReleased:
		if ev.Timeout {
			t.Timeouts++
		} else {
			t.Declines++
		}
	case EvTaskClosed:
		if !known {
			return
		}
		t.TasksOpen--
		if ev.Decided {
			t.TasksDecided++
		} else {
			t.TasksExpired++
		}
	}
}

// multiSink fans one event stream out to several sinks, in order.
type multiSink []EventSink

func (m multiSink) TaskEvent(ev Event) {
	for _, s := range m {
		s.TaskEvent(ev)
	}
}

// Sinks combines several event sinks into one, delivering every event
// to each non-nil sink in argument order. It lets cmd/juryd attach the
// insight and lifecycle engines to the same store without either
// knowing about the other; nil arguments are skipped, and a result
// covering zero sinks is nil (emission disabled entirely).
func Sinks(sinks ...EventSink) EventSink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// emitCreated publishes a TaskCreated event for an applied create record.
func (s *Store) emitCreated(t *task, rec *record) {
	if s.events == nil {
		return
	}
	jury := make([]EventJuror, len(rec.Jury))
	for i, j := range rec.Jury {
		jury[i] = EventJuror{ID: j.ID, ErrorRate: j.ErrorRate}
	}
	s.events.TaskEvent(Event{
		Type:             EvTaskCreated,
		Task:             t.id,
		At:               rec.At,
		Pool:             rec.Spec.Pool,
		Strategy:         rec.Spec.Strategy,
		PredictedJER:     rec.PredictedJER,
		TargetConfidence: rec.Spec.TargetConfidence,
		PoolVersion:      rec.PoolVersion,
		Jury:             jury,
	})
}

// emitClosed publishes the terminal event for a task that just closed
// into state st.
func (s *Store) emitClosed(t *task, st *taskState, at time.Time) {
	if s.events == nil {
		return
	}
	ev := Event{Type: EvTaskClosed, Task: t.id, At: at}
	if v := st.verdict; v != nil {
		ev.Decided = true
		ev.Answer = v.Answer
		ev.Confidence = v.Confidence
		ev.EarlyStopped = v.EarlyStopped
	}
	s.events.TaskEvent(ev)
}
