// Package insight is juryd's decision-quality observability layer: an
// incremental analytics engine over the task event stream
// (internal/tasks.EventSink) that answers the questions the serving
// metrics cannot — is the predicted Jury Error Rate calibrated against
// realized verdicts, which jurors actually respond and how fast, and
// which juror pairs agree more often than independence predicts.
//
// The engine consumes the stream identically live (hooked on the
// sharded task store, called under shard mutexes) and cold (WAL replay
// through the same apply path), and its state is strictly
// order-invariant across tasks: integer counters, integer histogram
// buckets, and fixed-point sums, with floats derived only at snapshot
// time over sorted keys. Live tail and cold replay of the same WAL
// horizon therefore produce bit-identical snapshots — the property the
// restart-mid-stream test and the CI fingerprint check pin down. The
// single documented exception is the pair-tracker admission cap: once
// the bounded pair map is full, which pairs were admitted depends on
// task close order, so deployments sizing PairCap below their co-vote
// cardinality trade fingerprint stability for memory.
//
// Events for tasks whose creation lies beyond the compaction horizon
// (restored from snapshot, so replay never sees their TaskCreated) are
// counted in UnknownTaskEvents and still feed juror-level counters, but
// contribute no calibration or agreement samples.
package insight

import (
	"sync"

	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// DefaultPairCap bounds the co-vote pair tracker. 1<<14 pairs ≈ a
// 181-juror complete graph, 0.7–0.9 MB at the tracker's 43–53 B per
// pair; beyond it new pairs are dropped (and counted) rather than
// grown, keeping the engine's footprint independent of crowd size.
const DefaultPairCap = 1 << 14

// jurorStats is one juror's accumulated profile. All fields are
// integers (or an obs.Histogram, whose state is integer buckets), so
// updates commute across tasks.
type jurorStats struct {
	invites  int64
	votes    int64
	yesVotes int64
	declines int64
	timeouts int64
	judged   int64 // votes on tasks that reached a verdict
	wrong    int64 // votes against the verdict
	epsSum   int64 // fixed-point Σ pinned ε across observations
	epsN     int64
	latency  obs.Histogram // invitation → vote, nanoseconds
}

// coVote is one recorded vote within an open task, in per-task
// application order (identical live and replay): the voter's row and
// answer, 8 bytes.
type coVote struct {
	row uint32
	yes bool
}

// openTask is the engine's working state for a task between its
// TaskCreated and TaskClosed events. It is held by value, and its vote
// list is allocated once at the jury's size, so a task whose jurors all
// vote allocates nothing after its creation.
type openTask struct {
	strategy     string
	predictedJER float64
	votes        []coVote
}

// pairStats accumulates co-vote agreement for one pair.
type pairStats struct {
	n     int64 // tasks both voted on
	agree int64 // of those, same answer
}

// pairKey packs an unordered pair of juror rows into one tracker key,
// the lower row in the high word. Rows follow first sight, which differs
// between live and replay, so a key is only an identity: the rendered
// pair is ordered by ID.
func pairKey(a, b uint32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Engine is the analytics sink. It implements tasks.EventSink; attach
// it via tasks.Config.Events before Open so WAL recovery replays
// history into it, then leave it attached for the live tail. TaskEvent
// is called synchronously under task-store shard mutexes, so the
// engine's own lock is leaf-level and its methods never call back into
// the store.
//
// Each juror ID is interned once: jurors maps it to a dense row of ids
// and stats, assigned at first sight. Open tasks and the pair tracker
// hold rows, so the tracker holds no pointer and IDs come back only
// when a snapshot renders.
type Engine struct {
	mu      sync.Mutex
	jurors  map[string]uint32
	ids     []string // row → ID
	stats   []jurorStats
	open    map[string]openTask
	pairs   map[uint64]pairStats
	pairCap int

	calib      Reliability
	byStrategy map[string]*Reliability

	tally        tasks.Tally
	droppedPairs int64
}

// New returns an engine with the given pair-tracker bound; pairCap <= 0
// selects DefaultPairCap.
func New(pairCap int) *Engine {
	if pairCap <= 0 {
		pairCap = DefaultPairCap
	}
	return &Engine{
		jurors:     make(map[string]uint32),
		open:       make(map[string]openTask),
		pairs:      make(map[uint64]pairStats),
		pairCap:    pairCap,
		byStrategy: make(map[string]*Reliability),
	}
}

// juror returns id's row, interning id at first sight, and folds in the
// pinned error rate carried by the triggering event. The row's stats
// stay addressable as &e.stats[row] until the next new juror.
func (e *Engine) juror(id string, eps float64) uint32 {
	row, ok := e.jurors[id]
	if !ok {
		row = uint32(len(e.ids))
		e.jurors[id] = row
		e.ids = append(e.ids, id)
		e.stats = append(e.stats, jurorStats{})
	}
	if eps > 0 {
		j := &e.stats[row]
		j.epsSum += fp(eps)
		j.epsN++
	}
	return row
}

// TaskEvent consumes one task state change. See the package comment for
// the ordering contract this reduction is built against.
func (e *Engine) TaskEvent(ev tasks.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ot, known := e.open[ev.Task]
	e.tally.Observe(ev, known)
	switch ev.Type {
	case tasks.EvTaskCreated:
		e.open[ev.Task] = openTask{
			strategy:     ev.Strategy,
			predictedJER: ev.PredictedJER,
			votes:        make([]coVote, 0, len(ev.Jury)),
		}
		for _, j := range ev.Jury {
			e.stats[e.juror(j.ID, j.ErrorRate)].invites++
		}
	case tasks.EvJurorInvited:
		e.stats[e.juror(ev.Juror, ev.ErrorRate)].invites++
	case tasks.EvVoteRecorded:
		row := e.juror(ev.Juror, ev.ErrorRate)
		j := &e.stats[row]
		j.votes++
		if ev.Vote {
			j.yesVotes++
		}
		j.latency.Observe(ev.LatencyNS)
		if known {
			ot.votes = append(ot.votes, coVote{row: row, yes: ev.Vote})
			e.open[ev.Task] = ot
		}
	case tasks.EvJurorReleased:
		j := &e.stats[e.juror(ev.Juror, ev.ErrorRate)]
		if ev.Timeout {
			j.timeouts++
		} else {
			j.declines++
		}
	case tasks.EvTaskClosed:
		if !known {
			return
		}
		delete(e.open, ev.Task)
		if ev.Decided {
			// Production has no oracle: the posterior's own expected
			// error (1 − confidence) is the realized sample. Simlab
			// layers oracle 0/1 outcomes through its own Reliability.
			realized := 1 - ev.Confidence
			e.calib.Add(ot.predictedJER, realized)
			sr := e.byStrategy[ot.strategy]
			if sr == nil {
				sr = &Reliability{}
				e.byStrategy[ot.strategy] = sr
			}
			sr.Add(ot.predictedJER, realized)
			for _, v := range ot.votes {
				j := &e.stats[v.row]
				j.judged++
				if v.yes != ev.Answer {
					j.wrong++
				}
			}
		}
		e.recordPairs(ot.votes)
	}
}

// recordPairs folds one closed task's vote list into the pair tracker.
// The list is in per-task application order, identical live and replay,
// so the increments are deterministic; only admission of brand-new
// pairs once the cap is reached depends on cross-task close order.
func (e *Engine) recordPairs(votes []coVote) {
	for i := 0; i < len(votes); i++ {
		for k := i + 1; k < len(votes); k++ {
			a, b := votes[i], votes[k]
			key := pairKey(a.row, b.row)
			p, ok := e.pairs[key]
			if !ok && len(e.pairs) >= e.pairCap {
				e.droppedPairs++
				continue
			}
			p.n++
			if a.yes == b.yes {
				p.agree++
			}
			e.pairs[key] = p
		}
	}
}
