package insight

import (
	"math"
	"sort"

	"juryselect/internal/estimate"
	"juryselect/internal/obs"
)

// JurorProfile is one juror's rendered profile: participation counts,
// the mean pool ε pinned at their invitations, the Beta-posterior
// realized error rate folded from verdict outcomes (same machinery as
// internal/estimate's drift pipeline), and vote-latency quantiles.
type JurorProfile struct {
	ID       string `json:"id"`
	Invites  int64  `json:"invites"`
	Votes    int64  `json:"votes"`
	YesVotes int64  `json:"yes_votes"`
	Declines int64  `json:"declines"`
	Timeouts int64  `json:"timeouts"`
	Judged   int64  `json:"judged"`
	Wrong    int64  `json:"wrong"`
	// PoolEps is the mean error rate the selector believed at
	// invitation time; RealizedRate is the posterior after folding the
	// juror's record against resolved verdicts. A persistent gap is the
	// signal the ROADMAP's availability/correlation items act on.
	PoolEps      float64     `json:"pool_eps"`
	RealizedRate float64     `json:"realized_rate"`
	ResponseRate float64     `json:"response_rate"`
	Latency      obs.Summary `json:"latency"`
}

// CalibrationReport is the JER reliability diagram: overall and broken
// down by selection strategy.
type CalibrationReport struct {
	Overall    ReliabilityReport            `json:"overall"`
	ByStrategy map[string]ReliabilityReport `json:"by_strategy"`
}

// AgreementPair is one tracked juror pair's co-vote record with its
// agreement-above-chance z-score: Expected is the agreement probability
// under independence given each juror's global yes-rate, and Z measures
// how many standard deviations the observed agreement count sits above
// it. Large positive Z across many co-votes is the correlated-bloc
// early-warning signal.
type AgreementPair struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	CoVotes    int64   `json:"co_votes"`
	Agreements int64   `json:"agreements"`
	Rate       float64 `json:"rate"`
	Expected   float64 `json:"expected"`
	Z          float64 `json:"z"`
}

// AgreementReport is the pair tracker's rendered state, highest-volume
// pairs first.
type AgreementReport struct {
	TrackedPairs int             `json:"tracked_pairs"`
	DroppedPairs int64           `json:"dropped_pairs"`
	Pairs        []AgreementPair `json:"pairs"`
}

// Snapshot is the engine's full rendered state. Field values are
// derived from order-invariant integer state by deterministic
// arithmetic over sorted keys, so two engines that consumed the same
// event multiset render byte-identical JSON — which is what Fingerprint
// hashes and the live≡replay checks compare.
type Snapshot struct {
	Events            int64             `json:"events"`
	TasksCreated      int64             `json:"tasks_created"`
	TasksDecided      int64             `json:"tasks_decided"`
	TasksExpired      int64             `json:"tasks_expired"`
	TasksOpen         int               `json:"tasks_open"`
	Votes             int64             `json:"votes"`
	Declines          int64             `json:"declines"`
	Timeouts          int64             `json:"timeouts"`
	UnknownTaskEvents int64             `json:"unknown_task_events"`
	Jurors            []JurorProfile    `json:"jurors"`
	Calibration       CalibrationReport `json:"calibration"`
	Agreement         AgreementReport   `json:"agreement"`
	Fingerprint       string            `json:"fingerprint"`
}

// Stats is the cheap counter block for /metrics: no maps are walked and
// no quantiles computed, so scraping stays O(1) in crowd size.
type Stats struct {
	Events             int64   `json:"events"`
	TasksCreated       int64   `json:"tasks_created"`
	TasksDecided       int64   `json:"tasks_decided"`
	TasksExpired       int64   `json:"tasks_expired"`
	TasksOpen          int     `json:"tasks_open"`
	Votes              int64   `json:"votes"`
	Declines           int64   `json:"declines"`
	Timeouts           int64   `json:"timeouts"`
	UnknownTaskEvents  int64   `json:"unknown_task_events"`
	JurorsTracked      int     `json:"jurors_tracked"`
	PairsTracked       int     `json:"pairs_tracked"`
	PairsDropped       int64   `json:"pairs_dropped"`
	CalibrationSamples int64   `json:"calibration_samples"`
	Brier              float64 `json:"brier"`
}

// Stats returns the counter block.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var brier float64
	if e.calib.total > 0 {
		brier = float64(e.calib.brier) / fpScale / float64(e.calib.total)
	}
	return Stats{
		Events:             e.events,
		TasksCreated:       e.tasksCreated,
		TasksDecided:       e.tasksDecided,
		TasksExpired:       e.tasksExpired,
		TasksOpen:          len(e.open),
		Votes:              e.votesSeen,
		Declines:           e.declinesSeen,
		Timeouts:           e.timeoutsSeen,
		UnknownTaskEvents:  e.unknownTask,
		JurorsTracked:      len(e.jurors),
		PairsTracked:       len(e.pairs),
		PairsDropped:       e.droppedPairs,
		CalibrationSamples: e.calib.total,
		Brier:              brier,
	}
}

// Snapshot renders the full engine state deterministically and stamps
// its fingerprint: the SHA-256 of the snapshot's canonical JSON with
// the Fingerprint field empty.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{
		Events:            e.events,
		TasksCreated:      e.tasksCreated,
		TasksDecided:      e.tasksDecided,
		TasksExpired:      e.tasksExpired,
		TasksOpen:         len(e.open),
		Votes:             e.votesSeen,
		Declines:          e.declinesSeen,
		Timeouts:          e.timeoutsSeen,
		UnknownTaskEvents: e.unknownTask,
		Jurors:            e.jurorProfiles(),
		Calibration:       e.calibrationReport(),
		Agreement:         e.agreementReport(),
	}
	s.Fingerprint = obs.Fingerprint(s)
	return s
}

// jurorProfiles renders every tracked juror in ID order.
func (e *Engine) jurorProfiles() []JurorProfile {
	ids := make([]string, 0, len(e.jurors))
	for id := range e.jurors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JurorProfile, 0, len(ids))
	for _, id := range ids {
		j := e.jurors[id]
		p := JurorProfile{
			ID:       id,
			Invites:  j.invites,
			Votes:    j.votes,
			YesVotes: j.yesVotes,
			Declines: j.declines,
			Timeouts: j.timeouts,
			Judged:   j.judged,
			Wrong:    j.wrong,
		}
		if j.epsN > 0 {
			p.PoolEps = float64(j.epsSum) / fpScale / float64(j.epsN)
		}
		p.RealizedRate = realizedRate(p.PoolEps, j.wrong, j.judged)
		if asked := j.votes + j.declines + j.timeouts; asked > 0 {
			p.ResponseRate = float64(j.votes) / float64(asked)
		}
		hs := j.latency.Snapshot()
		p.Latency = hs.Summary()
		out = append(out, p)
	}
	return out
}

// realizedRate folds a juror's verdict record into their pool prior as
// a Beta posterior. With no usable prior (a juror first seen beyond the
// compaction horizon) it falls back to the raw observed rate.
func realizedRate(prior float64, wrong, judged int64) float64 {
	r, err := estimate.PosteriorRate(prior, estimate.DefaultPriorWeight, wrong, judged)
	if err == nil {
		return r
	}
	if judged > 0 {
		return float64(wrong) / float64(judged)
	}
	return 0
}

// calibrationReport renders the overall and per-strategy diagrams.
func (e *Engine) calibrationReport() CalibrationReport {
	rep := CalibrationReport{
		Overall:    e.calib.Report(),
		ByStrategy: make(map[string]ReliabilityReport, len(e.byStrategy)),
	}
	for strat, r := range e.byStrategy {
		rep.ByStrategy[strat] = r.Report()
	}
	return rep
}

// agreementReport renders tracked pairs sorted by volume (co-votes
// descending, then pair key) — "top K by volume" reads off the prefix.
func (e *Engine) agreementReport() AgreementReport {
	rep := AgreementReport{
		TrackedPairs: len(e.pairs),
		DroppedPairs: e.droppedPairs,
		Pairs:        make([]AgreementPair, 0, len(e.pairs)),
	}
	for key, p := range e.pairs {
		ap := AgreementPair{
			A:          key.a,
			B:          key.b,
			CoVotes:    p.n,
			Agreements: p.agree,
			Rate:       float64(p.agree) / float64(p.n),
		}
		ap.Expected, ap.Z = e.agreementZ(key, p)
		rep.Pairs = append(rep.Pairs, ap)
	}
	sort.Slice(rep.Pairs, func(i, k int) bool {
		a, b := rep.Pairs[i], rep.Pairs[k]
		if a.CoVotes != b.CoVotes {
			return a.CoVotes > b.CoVotes
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return rep
}

// agreementZ computes the pair's expected agreement probability under
// independence — p = q₁q₂ + (1−q₁)(1−q₂) from each juror's global
// yes-rate — and the z-score of the observed agreement count against
// Binomial(n, p). Degenerate marginals (a juror who always votes one
// way) make the variance 0; the z-score is reported as 0 there rather
// than ±Inf, since a constant voter carries no correlation evidence.
func (e *Engine) agreementZ(key pairKey, p *pairStats) (expected, z float64) {
	ja, jb := e.jurors[key.a], e.jurors[key.b]
	if ja == nil || jb == nil || ja.votes == 0 || jb.votes == 0 || p.n == 0 {
		return 0, 0
	}
	qa := float64(ja.yesVotes) / float64(ja.votes)
	qb := float64(jb.yesVotes) / float64(jb.votes)
	expected = qa*qb + (1-qa)*(1-qb)
	variance := float64(p.n) * expected * (1 - expected)
	if variance <= 0 {
		return expected, 0
	}
	z = (float64(p.agree) - float64(p.n)*expected) / math.Sqrt(variance)
	return expected, z
}
