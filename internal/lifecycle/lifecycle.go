// Package lifecycle is juryd's task-lifetime observability layer: a
// per-task timeline reconstructor and latency aggregator over the task
// event stream (internal/tasks.EventSink), with a declarative SLO
// engine and a sweep-stall watchdog layered on top.
//
// The Engine consumes the stream identically live (attached via
// tasks.Config.Events before Open, called under shard mutexes) and cold
// (WAL replay through the same apply path). Its retained state is
// per-task event lists — each ordered by that task's application order,
// which the store guarantees is identical live and replay — plus
// aggregate histograms folded from one task's own record at its close
// event. Both are order-invariant across tasks, so the live tail and a
// cold replay of the same WAL horizon render byte-identical timelines
// and an identical engine fingerprint; the restart CI smoke compares a
// task's timeline byte-for-byte across a kill -9.
//
// Events for tasks created beyond the compaction horizon (restored
// from snapshot, so replay never sees their TaskCreated) are counted in
// UnknownTaskEvents and produce no timeline. Closed timelines beyond
// TaskCap are evicted lowest-ID-first — a rule that depends only on the
// set of retained IDs, never on cross-task arrival order, preserving
// the replay-identity property under memory pressure.
package lifecycle

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// DefaultTaskCap bounds retained closed timelines. Open tasks are never
// evicted (their timeline is still growing and the store bounds open
// cardinality operationally); 1<<16 closed timelines of ~17-juror pay
// tasks take ≈ 87 MB, ~1.3 KB each (TestTaskRetainedBytes).
const DefaultTaskCap = 1 << 16

// evKind discriminates post-create timeline events. Values order the
// JSON span kinds; keep in sync with spanKinds.
type evKind uint8

const (
	evInvite evKind = iota + 1
	evVote
	evDecline
	evTimeout
)

// taskEvent is one post-create state change retained for rendering, in
// 24 bytes: the instant as an offset from the task's creation, and the
// juror as an index into the task's juror table, which supplies the ID
// and ε.
type taskEvent struct {
	atNS      int64  // since the task's creation
	latencyNS int64  // vote events: journaled invitation → vote
	juror     uint32 // index into taskRecord.jurors
	kind      evKind
	vote      bool
}

// taskRecord is the engine's retained state for one task: the creation
// header, the juror table and the ordered post-create event list.
// Everything needed to render the timeline deterministically.
type taskRecord struct {
	id           string
	createdAt    time.Time
	pool         string
	strategy     string
	poolVersion  uint64
	predictedJER float64
	targetConf   float64
	// jurors is the juror table: the jury (the first jurySize entries),
	// then each replacement in invite order. The store pins a juror's ε
	// at invitation, so every event of that juror carries the entry's ε.
	jurors   []tasks.EventJuror
	jurySize int
	events   []taskEvent

	closed       bool
	closedAt     time.Time
	decided      bool
	answer       bool
	confidence   float64
	earlyStopped bool
	firstVoteNS  int64 // offset from createdAt; -1 until the first vote
}

// aggKey buckets aggregate latency state.
type aggKey struct {
	strategy string
	outcome  string // "decided" | "expired"
}

// aggregate accumulates per-(strategy, outcome) latency distributions,
// folded exclusively from a single task's record at its close event so
// the updates commute across tasks.
type aggregate struct {
	tasks        int64
	votes        int64
	invites      int64
	declines     int64
	timeouts     int64
	earlyStopped int64
	ttv          obs.Histogram // created → closed
	ttfv         obs.Histogram // created → first vote (tasks with ≥1 vote)
	inviteVote   obs.Histogram // per vote: invitation → vote
}

// Engine is the timeline sink. It implements tasks.EventSink; attach it
// via tasks.Config.Events (combine with other sinks through
// tasks.Sinks) before Open so recovery replays history into it, then
// leave it attached for the live tail. TaskEvent runs under task-store
// shard mutexes: the engine's lock is leaf-level and nothing here calls
// back into the store.
type Engine struct {
	mu      sync.Mutex
	records map[string]*taskRecord
	// closedIDs holds retained closed-task IDs in ascending sequence
	// order (see retain); eviction pops the front.
	closedIDs []string
	taskCap   int
	aggs      map[aggKey]*aggregate

	slo *SLO // optional; fed time-to-verdict samples at close

	tally   tasks.Tally
	evicted int64
}

// New returns an engine retaining at most taskCap closed timelines;
// taskCap <= 0 selects DefaultTaskCap.
func New(taskCap int) *Engine {
	if taskCap <= 0 {
		taskCap = DefaultTaskCap
	}
	return &Engine{
		records: make(map[string]*taskRecord),
		taskCap: taskCap,
		aggs:    make(map[aggKey]*aggregate),
	}
}

// AttachSLO wires an SLO engine to receive verdict-latency and
// expired-rate samples at each task close, stamped with the journaled
// close time so WAL replay backfills the same windows a live feed would
// have filled. Call before the store opens.
func (e *Engine) AttachSLO(s *SLO) { e.slo = s }

// TaskEvent consumes one task state change. See the package comment for
// the ordering contract.
func (e *Engine) TaskEvent(ev tasks.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.records[ev.Task]
	e.tally.Observe(ev, r != nil)
	if ev.Type == tasks.EvTaskCreated {
		jurors := make([]tasks.EventJuror, len(ev.Jury))
		copy(jurors, ev.Jury)
		e.records[ev.Task] = &taskRecord{
			id:           ev.Task,
			createdAt:    ev.At,
			pool:         ev.Pool,
			strategy:     ev.Strategy,
			poolVersion:  ev.PoolVersion,
			predictedJER: ev.PredictedJER,
			targetConf:   ev.TargetConfidence,
			jurors:       jurors,
			jurySize:     len(jurors),
			firstVoteNS:  -1,
		}
		return
	}
	if r == nil {
		return // beyond the compaction horizon: no timeline to extend
	}
	te := taskEvent{atNS: ev.At.Sub(r.createdAt).Nanoseconds()}
	switch ev.Type {
	case tasks.EvJurorInvited:
		te.kind, te.juror = evInvite, uint32(len(r.jurors))
		r.jurors = append(r.jurors, tasks.EventJuror{ID: ev.Juror, ErrorRate: ev.ErrorRate})
	case tasks.EvVoteRecorded:
		te.kind, te.juror, te.vote, te.latencyNS = evVote, r.juror(ev), ev.Vote, ev.LatencyNS
		if r.firstVoteNS < 0 {
			r.firstVoteNS = te.atNS
		}
	case tasks.EvJurorReleased:
		te.kind, te.juror = evDecline, r.juror(ev)
		if ev.Timeout {
			te.kind = evTimeout
		}
	case tasks.EvTaskClosed:
		r.closed = true
		r.closedAt = ev.At
		r.decided = ev.Decided
		r.answer = ev.Answer
		r.confidence = ev.Confidence
		r.earlyStopped = ev.EarlyStopped
		r.events = trim(r.events)
		r.jurors = trim(r.jurors)
		e.fold(r)
		if e.slo != nil {
			e.slo.ObserveVerdict(ev.At, ev.At.Sub(r.createdAt).Nanoseconds(), ev.Decided)
		}
		e.retain(ev.Task)
		return
	default:
		return
	}
	r.events = append(r.events, te)
}

// juror returns the table index of the event's juror: the latest entry
// with its ID. A juror the table lacks, which no store stream produces,
// gets an entry.
func (r *taskRecord) juror(ev tasks.Event) uint32 {
	for i := len(r.jurors) - 1; i >= 0; i-- {
		if r.jurors[i].ID == ev.Juror {
			return uint32(i)
		}
	}
	r.jurors = append(r.jurors, tasks.EventJuror{ID: ev.Juror, ErrorRate: ev.ErrorRate})
	return uint32(len(r.jurors) - 1)
}

// trim returns s without append slack, copying it once if it has any: a
// closed timeline grows no more.
func trim[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// retain enters a freshly closed task into the bounded closed set,
// evicting the lowest retained ID while over cap. Task IDs are
// monotonic, so the sorted insert is an append in the common case. IDs
// compare by length, then bytes: sequence order for every ID the store
// renders, where string order would put t100000000 before t99999999.
func (e *Engine) retain(id string) {
	i, _ := slices.BinarySearchFunc(e.closedIDs, id, func(a, b string) int { return cmp.Or(cmp.Compare(len(a), len(b)), cmp.Compare(a, b)) })
	e.closedIDs = append(e.closedIDs, "")
	copy(e.closedIDs[i+1:], e.closedIDs[i:])
	e.closedIDs[i] = id
	for len(e.closedIDs) > e.taskCap {
		evict := e.closedIDs[0]
		e.closedIDs = e.closedIDs[1:]
		delete(e.records, evict)
		e.evicted++
	}
}

// fold adds one closed task's record to its (strategy, outcome)
// aggregate. Reads only the task's own state, so the update commutes
// with every other task's fold.
func (e *Engine) fold(r *taskRecord) {
	key := aggKey{strategy: r.strategy, outcome: outcomeOf(r)}
	a := e.aggs[key]
	if a == nil {
		a = &aggregate{}
		e.aggs[key] = a
	}
	a.tasks++
	a.invites += int64(r.jurySize)
	if r.earlyStopped {
		a.earlyStopped++
	}
	for i := range r.events {
		switch te := &r.events[i]; te.kind {
		case evInvite:
			a.invites++
		case evVote:
			a.votes++
			a.inviteVote.Observe(te.latencyNS)
		case evDecline:
			a.declines++
		case evTimeout:
			a.timeouts++
		}
	}
	a.ttv.Observe(r.closedAt.Sub(r.createdAt).Nanoseconds())
	if r.firstVoteNS >= 0 {
		a.ttfv.Observe(r.firstVoteNS)
	}
}

// outcomeOf renders a record's terminal bucket.
func outcomeOf(r *taskRecord) string {
	switch {
	case !r.closed:
		return "open"
	case r.decided:
		return "decided"
	default:
		return "expired"
	}
}
