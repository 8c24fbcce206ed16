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

// DefaultPairCap bounds the co-vote pair map. 1<<14 pairs ≈ a 181-juror
// complete graph; beyond it new pairs are dropped (and counted) rather
// than grown, keeping the engine's footprint independent of crowd size.
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
// application order (identical live and replay).
type coVote struct {
	juror string
	yes   bool
}

// openTask is the engine's working state for a task between its
// TaskCreated and TaskClosed events.
type openTask struct {
	strategy     string
	predictedJER float64
	votes        []coVote
}

// pairKey identifies an unordered juror pair canonically (A < B).
type pairKey struct {
	a, b string
}

// pairStats accumulates co-vote agreement for one pair.
type pairStats struct {
	n     int64 // tasks both voted on
	agree int64 // of those, same answer
}

// Engine is the analytics sink. It implements tasks.EventSink; attach
// it via tasks.Config.Events before Open so WAL recovery replays
// history into it, then leave it attached for the live tail. TaskEvent
// is called synchronously under task-store shard mutexes, so the
// engine's own lock is leaf-level and its methods never call back into
// the store.
type Engine struct {
	mu      sync.Mutex
	jurors  map[string]*jurorStats
	open    map[string]*openTask
	pairs   map[pairKey]*pairStats
	pairCap int

	calib      Reliability
	byStrategy map[string]*Reliability

	tally        tasks.Tally
	droppedPairs int64
}

// New returns an engine with the given pair-map bound; pairCap <= 0
// selects DefaultPairCap.
func New(pairCap int) *Engine {
	if pairCap <= 0 {
		pairCap = DefaultPairCap
	}
	return &Engine{
		jurors:     make(map[string]*jurorStats),
		open:       make(map[string]*openTask),
		pairs:      make(map[pairKey]*pairStats),
		pairCap:    pairCap,
		byStrategy: make(map[string]*Reliability),
	}
}

// juror returns (creating if needed) the stats row for id, folding in
// the pinned error rate carried by the triggering event.
func (e *Engine) juror(id string, eps float64) *jurorStats {
	j := e.jurors[id]
	if j == nil {
		j = &jurorStats{}
		e.jurors[id] = j
	}
	if eps > 0 {
		j.epsSum += fp(eps)
		j.epsN++
	}
	return j
}

// TaskEvent consumes one task state change. See the package comment for
// the ordering contract this reduction is built against.
func (e *Engine) TaskEvent(ev tasks.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ot := e.open[ev.Task]
	e.tally.Observe(ev, ot != nil)
	switch ev.Type {
	case tasks.EvTaskCreated:
		e.open[ev.Task] = &openTask{
			strategy:     ev.Strategy,
			predictedJER: ev.PredictedJER,
		}
		for _, j := range ev.Jury {
			e.juror(j.ID, j.ErrorRate).invites++
		}
	case tasks.EvJurorInvited:
		e.juror(ev.Juror, ev.ErrorRate).invites++
	case tasks.EvVoteRecorded:
		j := e.juror(ev.Juror, ev.ErrorRate)
		j.votes++
		if ev.Vote {
			j.yesVotes++
		}
		j.latency.Observe(ev.LatencyNS)
		if ot != nil {
			ot.votes = append(ot.votes, coVote{juror: ev.Juror, yes: ev.Vote})
		}
	case tasks.EvJurorReleased:
		j := e.juror(ev.Juror, ev.ErrorRate)
		if ev.Timeout {
			j.timeouts++
		} else {
			j.declines++
		}
	case tasks.EvTaskClosed:
		if ot == nil {
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
				j := e.jurors[v.juror]
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
			key := pairKey{a: a.juror, b: b.juror}
			if key.b < key.a {
				key.a, key.b = key.b, key.a
			}
			p := e.pairs[key]
			if p == nil {
				if len(e.pairs) >= e.pairCap {
					e.droppedPairs++
					continue
				}
				p = &pairStats{}
				e.pairs[key] = p
			}
			p.n++
			if a.yes == b.yes {
				p.agree++
			}
		}
	}
}
