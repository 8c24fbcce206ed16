package simul

import (
	"encoding/json"
	"math"
	"sort"

	"juryselect/internal/insight"
	"juryselect/internal/obs"
)

// ReportSchema identifies the metrics JSON format.
const ReportSchema = "juryselect-simul/v1"

// StepRecord is the full per-step trace entry, emitted when tracing is
// enabled. The decision-accuracy trajectory tests compare these between
// the in-process and HTTP modes.
type StepRecord struct {
	Step         int     `json:"step"`
	PoolVersion  uint64  `json:"pool_version,omitempty"`
	JurySize     int     `json:"jury_size"`
	Responders   int     `json:"responders"`
	Decided      bool    `json:"decided"`
	Correct      bool    `json:"correct"`
	Shed         bool    `json:"shed,omitempty"`
	PredictedJER float64 `json:"predicted_jer"`
	TrueJER      float64 `json:"true_jer"`
	OracleJER    float64 `json:"oracle_jer"`
	Regret       float64 `json:"regret"`
	Calibration  float64 `json:"calibration"`
	Spend        float64 `json:"spend"`
	// Task-lifecycle fields (zero in select mode): how many votes the
	// sequential protocol actually paid for, how many invitees declined
	// (and were replaced), and whether/how confidently the task closed
	// before exhausting its jury.
	VotesSpent   int     `json:"votes_spent,omitempty"`
	Declines     int     `json:"declines,omitempty"`
	EarlyStopped bool    `json:"early_stopped,omitempty"`
	Confidence   float64 `json:"confidence,omitempty"`
}

// Window aggregates a contiguous run of steps: the unit of the
// convergence trajectories in EXPERIMENTS.md.
type Window struct {
	// StartStep and EndStep bound the window as [start, end).
	StartStep int `json:"start_step"`
	EndStep   int `json:"end_step"`
	// Decided counts steps where a majority decision was delivered;
	// Correct counts those matching the latent truth; Shed counts steps
	// lost to admission control.
	Decided int `json:"decided"`
	Correct int `json:"correct"`
	Shed    int `json:"shed,omitempty"`
	// Accuracy is Correct over attempted (non-shed) steps: an undecided
	// question (tie or no turnout) counts against the system.
	Accuracy float64 `json:"accuracy"`
	// MeanRegret and MeanCalibration average the per-step selection
	// regret (true JER of the chosen jury minus the oracle jury's) and
	// JER calibration error (|predicted − true|) over non-shed steps.
	MeanRegret      float64 `json:"mean_regret"`
	MeanCalibration float64 `json:"mean_calibration"`
}

// LatencySummary summarises the round-trip times of each step's HTTP
// select, or task create in the task lifecycle. Wall-clock
// measurements: present only in HTTP mode and outside the deterministic
// part of the report.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P95NS  int64   `json:"p95_ns"`
	P99NS  int64   `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// summarizeHist builds a LatencySummary from the replication's latency
// histogram, or nil when nothing was measured (in-process runs record no
// wall-clock latency, keeping the deterministic report byte-stable).
// Count, mean and max are exact; the percentiles carry the histogram's
// factor-of-2 bucket resolution — the trade for recording fixed-size
// state instead of an unbounded sample slice on a hot loop.
func summarizeHist(h *obs.Histogram) *LatencySummary {
	s := h.Snapshot()
	if s.Count == 0 {
		return nil
	}
	return &LatencySummary{
		Count:  int(s.Count),
		MeanNS: s.Mean(),
		P50NS:  s.Quantile(0.50),
		P95NS:  s.Quantile(0.95),
		P99NS:  s.Quantile(0.99),
		MaxNS:  s.Max,
	}
}

// CountSummary summarises a small integer distribution exactly: sorted
// nearest-rank quantiles over the full sample, so the report stays
// bit-identical across runs and worker counts (unlike the power-of-2
// histogram buckets, which would quantize a jury-sized count space).
type CountSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int     `json:"p50"`
	P90   int     `json:"p90"`
	Max   int     `json:"max"`
}

// summarizeCounts builds a CountSummary, or nil for an empty sample.
func summarizeCounts(xs []int) *CountSummary {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	sum := 0
	for _, x := range sorted {
		sum += x
	}
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return &CountSummary{
		Count: len(sorted),
		Mean:  float64(sum) / float64(len(sorted)),
		P50:   rank(0.50),
		P90:   rank(0.90),
		Max:   sorted[len(sorted)-1],
	}
}

// RepResult is one replication's outcome.
type RepResult struct {
	Replication int `json:"replication"`
	Steps       int `json:"steps"`
	// Decided, Correct, Undecided and Shed partition the steps:
	// Decided + Undecided + Shed == Steps, Correct ≤ Decided.
	Decided   int `json:"decided"`
	Correct   int `json:"correct"`
	Undecided int `json:"undecided"`
	Shed      int `json:"shed"`
	// Retries counts 429 responses absorbed by Retry-After backoff
	// (HTTP mode; includes retries that eventually succeeded).
	Retries int `json:"retries,omitempty"`
	// Accuracy is Correct over attempted (non-shed) steps.
	Accuracy float64 `json:"accuracy"`
	// MeanRegret and MeanCalibration average over non-shed steps.
	MeanRegret      float64 `json:"mean_regret"`
	MeanCalibration float64 `json:"mean_calibration"`
	MeanJurySize    float64 `json:"mean_jury_size"`
	TotalSpend      float64 `json:"total_spend"`
	// Task-lifecycle tallies (omitted in select mode): votes actually
	// collected, invitations declined, replacement jurors pulled in,
	// tasks closed by sequential early stop, and the mean votes one
	// verdict cost — the pay-as-you-go headline number.
	TotalVotes     int     `json:"total_votes,omitempty"`
	TotalDeclines  int     `json:"total_declines,omitempty"`
	Replacements   int     `json:"replacements,omitempty"`
	EarlyStopped   int     `json:"early_stopped,omitempty"`
	MeanVotesSpent float64 `json:"mean_votes_spent,omitempty"`
	// VerdictVotes totals the votes spent on steps that reached a
	// verdict, and VotesToVerdict is their exact distribution — the
	// simulation's time-to-verdict, measured in the protocol's own clock
	// (sequential responses collected), since the simulator has no wall
	// time. Compare against MeanJurySize: a fixed jury pays every seat,
	// sequential early stop closes as soon as confidence is reached.
	VerdictVotes   int           `json:"verdict_votes,omitempty"`
	VotesToVerdict *CountSummary `json:"votes_to_verdict,omitempty"`
	// FinalPoolVersion is the backend pool version after the last step —
	// the number of published pool snapshots the run produced.
	FinalPoolVersion uint64 `json:"final_pool_version,omitempty"`
	// OracleCalibration bins each decided step's selection-time predicted
	// JER against its oracle outcome (0 = the majority matched the latent
	// truth, 1 = it did not) — the simlab counterpart of the production
	// insight engine's reliability diagram, which only ever sees posterior
	// confidence. Present whenever at least one step decided.
	OracleCalibration *insight.ReliabilityReport `json:"oracle_calibration,omitempty"`
	Windows           []Window                   `json:"windows"`
	Latency           *LatencySummary            `json:"latency,omitempty"`
	Trace             []StepRecord               `json:"trace,omitempty"`

	// oracleCalib keeps the raw integer bins so summarize can merge
	// replications exactly; the exported report is derived from it.
	oracleCalib insight.Reliability
}

// oracleReliability folds each decided step of a replication trace into
// reliability bins: predicted JER against the oracle 0/1 outcome.
// Undecided and shed steps carry no outcome and are skipped.
func oracleReliability(records []StepRecord) insight.Reliability {
	var rel insight.Reliability
	for _, r := range records {
		if r.Shed || !r.Decided {
			continue
		}
		realized := 0.0
		if !r.Correct {
			realized = 1
		}
		rel.Add(r.PredictedJER, realized)
	}
	return rel
}

// attachOracleCalibration derives the exported calibration report from
// the replication's trace records.
func (r *RepResult) attachOracleCalibration(records []StepRecord) {
	r.oracleCalib = oracleReliability(records)
	if r.oracleCalib.Total() > 0 {
		rep := r.oracleCalib.Report()
		r.OracleCalibration = &rep
	}
}

// Summary aggregates across replications.
type Summary struct {
	Replications    int     `json:"replications"`
	Accuracy        float64 `json:"accuracy"` // mean of replication accuracies
	MeanRegret      float64 `json:"mean_regret"`
	MeanCalibration float64 `json:"mean_calibration"`
	// WindowAccuracy is the per-window accuracy averaged across
	// replications: the convergence trajectory.
	WindowAccuracy []float64 `json:"window_accuracy"`
	// FirstWindowAccuracy and LastWindowAccuracy expose the trajectory's
	// endpoints for quick convergence checks.
	FirstWindowAccuracy float64 `json:"first_window_accuracy"`
	LastWindowAccuracy  float64 `json:"last_window_accuracy"`
	TotalShed           int     `json:"total_shed"`
	TotalRetries        int     `json:"total_retries,omitempty"`
	// ShedRate is shed steps over all steps in all replications.
	ShedRate float64 `json:"shed_rate"`
	// MeanVotesSpent and EarlyStopRate summarise the task lifecycle
	// (omitted in select mode): average votes per attempted task across
	// replications, and the fraction of decided tasks that closed before
	// exhausting their jury.
	MeanVotesSpent float64 `json:"mean_votes_spent,omitempty"`
	EarlyStopRate  float64 `json:"early_stop_rate,omitempty"`
	// MeanVotesToVerdict is votes spent per verdict pooled across
	// replications — the time-to-verdict headline in the simulation's
	// response clock. MeanJurySize is the selected jury size (what a
	// fixed jury would pay); MeanVotesSaved is their gap, the sequential
	// early-stop saving per verdict.
	MeanVotesToVerdict float64 `json:"mean_votes_to_verdict,omitempty"`
	MeanJurySize       float64 `json:"mean_jury_size,omitempty"`
	MeanVotesSaved     float64 `json:"mean_votes_saved,omitempty"`
	// OracleCalibration merges every replication's reliability bins. The
	// merge is commutative integer arithmetic, so the report is identical
	// at any worker count.
	OracleCalibration *insight.ReliabilityReport `json:"oracle_calibration,omitempty"`
}

// Report is the complete metrics document a run produces. In in-process
// mode it is a pure function of (Scenario, seed): bit-identical across
// runs and worker counts. In HTTP mode the latency summaries (and, under
// overload, shed counts) reflect wall-clock behaviour.
type Report struct {
	Schema       string      `json:"schema"`
	Mode         string      `json:"mode"`
	Scenario     Scenario    `json:"scenario"`
	Summary      Summary     `json:"summary"`
	Replications []RepResult `json:"replications"`
}

// Marshal renders the report as indented JSON with a trailing newline.
// Encoding is deterministic: struct-ordered keys and shortest
// round-trip float formatting.
func (r *Report) Marshal() ([]byte, error) {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// summarize builds the cross-replication summary.
func summarize(sc Scenario, reps []RepResult) Summary {
	s := Summary{Replications: len(reps)}
	if len(reps) == 0 {
		return s
	}
	var windows int
	var totalVotes, earlyStopped, decidedTasks, attempted, verdictVotes int
	var jurySized int
	for _, r := range reps {
		s.Accuracy += r.Accuracy
		s.MeanRegret += r.MeanRegret
		s.MeanCalibration += r.MeanCalibration
		s.TotalShed += r.Shed
		s.TotalRetries += r.Retries
		totalVotes += r.TotalVotes
		earlyStopped += r.EarlyStopped
		decidedTasks += r.Decided
		attempted += r.Steps - r.Shed
		verdictVotes += r.VerdictVotes
		if r.MeanJurySize > 0 {
			s.MeanJurySize += r.MeanJurySize
			jurySized++
		}
		if len(r.Windows) > windows {
			windows = len(r.Windows)
		}
	}
	n := float64(len(reps))
	s.Accuracy /= n
	s.MeanRegret /= n
	s.MeanCalibration /= n
	s.ShedRate = float64(s.TotalShed) / (n * float64(sc.Steps))
	if totalVotes > 0 && attempted > 0 {
		s.MeanVotesSpent = float64(totalVotes) / float64(attempted)
	}
	if earlyStopped > 0 && decidedTasks > 0 {
		s.EarlyStopRate = float64(earlyStopped) / float64(decidedTasks)
	}
	if jurySized > 0 {
		s.MeanJurySize /= float64(jurySized)
	}
	if verdictVotes > 0 && decidedTasks > 0 {
		s.MeanVotesToVerdict = float64(verdictVotes) / float64(decidedTasks)
		if s.MeanJurySize > s.MeanVotesToVerdict {
			s.MeanVotesSaved = s.MeanJurySize - s.MeanVotesToVerdict
		}
	}
	var calib insight.Reliability
	for i := range reps {
		calib.Merge(&reps[i].oracleCalib)
	}
	if calib.Total() > 0 {
		rep := calib.Report()
		s.OracleCalibration = &rep
	}

	s.WindowAccuracy = make([]float64, windows)
	counts := make([]int, windows)
	for _, r := range reps {
		for i, w := range r.Windows {
			s.WindowAccuracy[i] += w.Accuracy
			counts[i]++
		}
	}
	for i := range s.WindowAccuracy {
		if counts[i] > 0 {
			s.WindowAccuracy[i] /= float64(counts[i])
		}
	}
	if windows > 0 {
		s.FirstWindowAccuracy = s.WindowAccuracy[0]
		s.LastWindowAccuracy = s.WindowAccuracy[windows-1]
	}
	return s
}
