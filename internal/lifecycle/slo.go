package lifecycle

import (
	"log/slog"
	"sync"
	"time"

	"juryselect/internal/obs"
)

// SLIKind names a service-level indicator stream. Each kind is a
// good/bad event feed:
//
//   - SLIVerdictLatency: one event per decided task; good when
//     creation→verdict stayed within the objective's threshold. Fed by
//     the lifecycle Engine with journaled close times, so WAL replay
//     backfills the same windows a live feed filled.
//   - SLIExpiredRate: one event per closed task; good when it decided,
//     bad when it expired undecided. Same replay-backfill property.
//   - SLIHTTP5xx: one event per served request on a non-ops endpoint;
//     bad on a 5xx status. Polled from the server's cumulative counters
//     at evaluation time — process-local by nature.
//   - SLIWALFsync: one event per WAL fsync; good when it stayed within
//     the threshold. Live-only: fsync latency is a property of this
//     process's disk, not of the journaled history.
type SLIKind string

const (
	SLIVerdictLatency SLIKind = "verdict_latency"
	SLIExpiredRate    SLIKind = "expired_rate"
	SLIHTTP5xx        SLIKind = "http_5xx"
	SLIWALFsync       SLIKind = "wal_fsync"
)

// Objective is one declarative SLO: "Target fraction of SLI events are
// good". ThresholdNS applies to the latency SLIs (verdict_latency,
// wal_fsync) and classifies each observation.
type Objective struct {
	Name        string  `json:"name"`
	SLI         SLIKind `json:"sli"`
	Target      float64 `json:"target"`
	ThresholdNS int64   `json:"threshold_ns,omitempty"`
}

// BurnWindows is the multi-window burn-rate alerting policy (the
// standard SRE-workbook shape): a fast page when BOTH short fast
// windows burn budget at ≥ FastBurn× the sustainable rate, and a slow
// ticket when both long windows burn at ≥ SlowBurn×. Requiring the
// pair suppresses both stale alerts (the short window has recovered)
// and one-spike flukes (the long window never accumulated).
type BurnWindows struct {
	FastShort time.Duration `json:"fast_short"`
	FastLong  time.Duration `json:"fast_long"`
	SlowShort time.Duration `json:"slow_short"`
	SlowLong  time.Duration `json:"slow_long"`
	FastBurn  float64       `json:"fast_burn"`
	SlowBurn  float64       `json:"slow_burn"`
}

// DefaultBurnWindows is the canonical 5m/1h fast pair at 14.4× (2% of a
// 30-day budget in one hour) and 6h/3d slow pair at 1× (sustained
// burn that exhausts the budget exactly on schedule).
func DefaultBurnWindows() BurnWindows {
	return BurnWindows{
		FastShort: 5 * time.Minute,
		FastLong:  time.Hour,
		SlowShort: 6 * time.Hour,
		SlowLong:  3 * 24 * time.Hour,
		FastBurn:  14.4,
		SlowBurn:  1.0,
	}
}

// Compress divides every window by factor, preserving the burn
// thresholds — the CI smoke runs the same policy thousands of times
// faster against a fake clock.
func (w BurnWindows) Compress(factor int) BurnWindows {
	if factor <= 1 {
		return w
	}
	f := time.Duration(factor)
	w.FastShort /= f
	w.FastLong /= f
	w.SlowShort /= f
	w.SlowLong /= f
	return w
}

// objectiveState is one objective's tracked state: the windowed
// good/bad counts, cumulative totals, and alert latches.
type objectiveState struct {
	obj        Objective
	win        *obs.WindowedCounter
	good, bad  int64
	fastActive bool
	slowActive bool
	fastTrips  int64
	slowTrips  int64
}

// SLO tracks a set of objectives as error budgets with burn-rate
// alerting. Observation methods are leaf-level (safe to call from the
// lifecycle engine under store shard mutexes and from the WAL
// committer); Evaluate is called on a timer and by the /v1/slo and
// metrics handlers.
type SLO struct {
	windows BurnWindows
	now     func() time.Time
	logger  *slog.Logger

	mu     sync.Mutex
	states []*objectiveState
}

// NewSLO builds the tracker. Targets are clamped into [0.5, 0.99999]
// so every error budget is positive and finite. now is the clock used
// for observations that carry no timestamp of their own (fsync, HTTP
// polling); nil selects the UTC wall clock. logger receives burn-alert
// transitions; nil selects slog.Default().
func NewSLO(objectives []Objective, w BurnWindows, now func() time.Time, logger *slog.Logger) *SLO {
	if now == nil {
		now = func() time.Time { return time.Now().UTC() }
	}
	if logger == nil {
		logger = slog.Default()
	}
	if w.FastShort <= 0 {
		w = DefaultBurnWindows()
	}
	// Bucket width resolves the shortest window into ≥5 buckets; the
	// ring spans the longest window plus one bucket of slack.
	width := w.FastShort / 5
	if width <= 0 {
		width = time.Millisecond
	}
	slots := int(w.SlowLong/width) + 2
	s := &SLO{windows: w, now: now, logger: logger}
	for _, obj := range objectives {
		if obj.Target < 0.5 {
			obj.Target = 0.5
		}
		if obj.Target > 0.99999 {
			obj.Target = 0.99999
		}
		s.states = append(s.states, &objectiveState{
			obj: obj,
			win: obs.NewWindowedCounter(width, slots),
		})
	}
	return s
}

// Observe records good/bad events at an explicit instant on every
// objective tracking the given SLI.
func (s *SLO) Observe(kind SLIKind, at time.Time, good, bad int64) {
	if good == 0 && bad == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.states {
		if st.obj.SLI != kind {
			continue
		}
		st.win.Add(at, good, bad)
		st.good += good
		st.bad += bad
	}
}

// ObserveVerdict records one task closure: the expired-rate SLI counts
// the closure itself, and the verdict-latency SLI classifies decided
// tasks against each objective's threshold. at is the journaled close
// time, so replay backfills identically.
func (s *SLO) ObserveVerdict(at time.Time, verdictNS int64, decided bool) {
	if decided {
		s.Observe(SLIExpiredRate, at, 1, 0)
	} else {
		s.Observe(SLIExpiredRate, at, 0, 1)
	}
	if !decided {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.states {
		if st.obj.SLI != SLIVerdictLatency {
			continue
		}
		if verdictNS <= st.obj.ThresholdNS {
			st.win.Add(at, 1, 0)
			st.good++
		} else {
			st.win.Add(at, 0, 1)
			st.bad++
		}
	}
}

// ObserveFsync records one WAL fsync latency, stamped with the SLO
// clock (the committer goroutine carries no event timestamp).
func (s *SLO) ObserveFsync(latencyNS int64) {
	at := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.states {
		if st.obj.SLI != SLIWALFsync {
			continue
		}
		if latencyNS <= st.obj.ThresholdNS {
			st.win.Add(at, 1, 0)
			st.good++
		} else {
			st.win.Add(at, 0, 1)
			st.bad++
		}
	}
}

// ObserveHTTP records a batch of served requests (good) and 5xx
// responses (bad), stamped with the SLO clock. The server polls its
// cumulative per-endpoint counters and feeds the deltas here, keeping
// the request hot path free of SLO bookkeeping.
func (s *SLO) ObserveHTTP(good, bad int64) {
	s.Observe(SLIHTTP5xx, s.now(), good, bad)
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	SLI         SLIKind `json:"sli"`
	Target      float64 `json:"target"`
	ThresholdNS int64   `json:"threshold_ns,omitempty"`
	Good        int64   `json:"good"`
	Bad         int64   `json:"bad"`

	// Burn rates per alerting window: the window's bad fraction divided
	// by the error budget (1−Target). 1.0 = burning exactly at the rate
	// that exhausts the budget on schedule. Always finite.
	BurnFastShort float64 `json:"burn_fast_short"`
	BurnFastLong  float64 `json:"burn_fast_long"`
	BurnSlowShort float64 `json:"burn_slow_short"`
	BurnSlowLong  float64 `json:"burn_slow_long"`

	// BudgetRemaining is the slow-long window's unspent error budget
	// fraction (1 − BurnSlowLong); negative when overspent.
	BudgetRemaining float64 `json:"budget_remaining"`

	FastAlert bool  `json:"fast_alert"`
	SlowAlert bool  `json:"slow_alert"`
	FastTrips int64 `json:"fast_trips"`
	SlowTrips int64 `json:"slow_trips"`
}

// burnOver computes one window's burn rate; zero when the window holds
// no events.
func (st *objectiveState) burnOver(now time.Time, window time.Duration) float64 {
	good, bad := st.win.Totals(now, window)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - st.obj.Target // clamped positive at construction
	return (float64(bad) / float64(total)) / budget
}

// Evaluate computes every objective's burn rates at the given instant,
// latching and logging alert transitions. Called on juryd's evaluation
// ticker and by the serving handlers; transitions are deterministic in
// (window state, now), so concurrent callers agree.
func (s *SLO) Evaluate(now time.Time) []ObjectiveStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(s.states))
	for _, st := range s.states {
		os := ObjectiveStatus{
			Name:          st.obj.Name,
			SLI:           st.obj.SLI,
			Target:        st.obj.Target,
			ThresholdNS:   st.obj.ThresholdNS,
			Good:          st.good,
			Bad:           st.bad,
			BurnFastShort: st.burnOver(now, s.windows.FastShort),
			BurnFastLong:  st.burnOver(now, s.windows.FastLong),
			BurnSlowShort: st.burnOver(now, s.windows.SlowShort),
			BurnSlowLong:  st.burnOver(now, s.windows.SlowLong),
		}
		os.BudgetRemaining = 1 - os.BurnSlowLong

		fast := os.BurnFastShort >= s.windows.FastBurn && os.BurnFastLong >= s.windows.FastBurn
		if fast != st.fastActive {
			st.fastActive = fast
			if fast {
				st.fastTrips++
				s.logger.Warn("slo fast burn-rate alert firing",
					"objective", st.obj.Name, "sli", string(st.obj.SLI),
					"burn_short", os.BurnFastShort, "burn_long", os.BurnFastLong,
					"threshold", s.windows.FastBurn)
			} else {
				s.logger.Info("slo fast burn-rate alert resolved",
					"objective", st.obj.Name, "sli", string(st.obj.SLI))
			}
		}
		slow := os.BurnSlowShort >= s.windows.SlowBurn && os.BurnSlowLong >= s.windows.SlowBurn
		if slow != st.slowActive {
			st.slowActive = slow
			if slow {
				st.slowTrips++
				s.logger.Warn("slo slow burn-rate alert firing",
					"objective", st.obj.Name, "sli", string(st.obj.SLI),
					"burn_short", os.BurnSlowShort, "burn_long", os.BurnSlowLong,
					"threshold", s.windows.SlowBurn)
			} else {
				s.logger.Info("slo slow burn-rate alert resolved",
					"objective", st.obj.Name, "sli", string(st.obj.SLI))
			}
		}
		os.FastAlert = st.fastActive
		os.SlowAlert = st.slowActive
		os.FastTrips = st.fastTrips
		os.SlowTrips = st.slowTrips
		out = append(out, os)
	}
	return out
}

// SLOSnapshot is the /v1/slo wire form: the policy plus every
// objective's evaluated status.
type SLOSnapshot struct {
	Windows     BurnWindows       `json:"windows"`
	EvaluatedAt time.Time         `json:"evaluated_at"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// Snapshot evaluates at the given instant and wraps the result with the
// policy in force.
func (s *SLO) Snapshot(now time.Time) *SLOSnapshot {
	return &SLOSnapshot{Windows: s.windows, EvaluatedAt: now, Objectives: s.Evaluate(now)}
}
