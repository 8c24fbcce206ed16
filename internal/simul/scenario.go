// Package simul is a deterministic, seeded, discrete-event micro-blog
// crowd simulator and closed-loop load generator for the jury-selection
// stack. It animates the online setting the paper assumes but never
// exercises end to end: questions arrive continuously, jurors' true error
// rates are latent and drifting, jurors join and leave the crowd, and the
// system must keep selecting minimum-JER juries while re-estimating ε
// from the votes it observes.
//
// A Scenario declares the crowd and the regime: population, ground-truth
// error-rate distribution (truncated-normal or the §4 micro-blog
// estimation pipeline over a synthetic corpus), a drift model (static /
// random-walk / regime-shift, cf. Burghardt et al., "The Myopia of
// Crowds"), churn (join/leave, mapped to pool PATCH operations),
// availability (the probability a selected juror actually votes, cf.
// Mahmud et al., "Optimizing the Selection of Strangers"), a selection
// strategy (altr / pay / exact / random / degree baseline) and an
// estimation policy (oracle ε, Beta-posterior from observed votes, or EM
// over the vote history).
//
// Each step the simulator drifts and churns the ground truth, selects a
// jury from the live pool, samples availability and votes from the true
// rates, aggregates the majority decision, folds the observations back
// into the estimator, and records decision accuracy, regret against the
// oracle-ε jury, JER calibration error and spend. The same scenario can
// run in-process (against a memory-mode task store and jury.Engine) or
// over HTTP against a live juryd — the randomness is consumed
// identically, so the two modes produce the same decision trajectory,
// modulo requests the service sheds under overload.
//
// Determinism contract: same Scenario + seed ⇒ bit-identical metrics
// (Report.MarshalDeterministic), for every worker count. HTTP-mode
// latency summaries are measured wall-clock and sit outside the
// deterministic part.
package simul

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Strategy names accepted by Scenario.Strategy.
const (
	StrategyAltr   = "altr"   // AltrALG over estimated rates (Algorithm 3)
	StrategyPay    = "pay"    // PayALG greedy under Scenario.Budget (Algorithm 4)
	StrategyExact  = "exact"  // exact enumeration under Scenario.Budget
	StrategyRandom = "random" // uniformly random odd jury of FixedSize
	StrategyDegree = "degree" // FixedSize most-popular jurors (degree baseline)
)

// Estimator names accepted by Scenario.Estimator.
const (
	EstimatorOracle    = "oracle"    // selection sees the true ε at every step
	EstimatorPosterior = "posterior" // Beta-posterior folding of observed votes
	EstimatorEM        = "em"        // periodic Dawid–Skene EM over the vote history
)

// Source names accepted by Scenario.Source.
const (
	SourceNormal    = "normal"    // truncated-normal ε, Zipf popularity
	SourceMicroblog = "microblog" // §4 pipeline over a synthetic retweet corpus
)

// Lifecycle names accepted by Scenario.Lifecycle.
const (
	// LifecycleSelect (the default) is the PR-4 loop: one stateless
	// /v1/select per question, all selected jurors vote at once.
	LifecycleSelect = "select"
	// LifecycleTask drives the durable decision-task subsystem: per
	// question a task is created (POST /v1/tasks), invited jurors vote
	// or decline one at a time (availability draws decide which),
	// non-responders are replaced by the next-best candidate, and the
	// task closes by sequential early stop — or when the jury is
	// exhausted.
	LifecycleTask = "task"
)

// Drift model names accepted by DriftSpec.Model.
const (
	DriftStatic = "static" // frozen ground truth
	DriftWalk   = "walk"   // per-step Gaussian random walk on every ε
	DriftShift  = "shift"  // one regime shift: a fraction of jurors redrawn
)

// DriftSpec declares how the ground-truth error rates evolve.
type DriftSpec struct {
	// Model is static (default), walk, or shift.
	Model string `json:"model,omitempty"`
	// Sigma is the per-step standard deviation of the random walk
	// (default 0.01; walk model only).
	Sigma float64 `json:"sigma,omitempty"`
	// ShiftStep is the step at which the regime shift lands (shift
	// model only). Zero selects the default Steps/2 — a shift at the
	// very first step is therefore not expressible; shift the initial
	// rate distribution instead.
	ShiftStep int `json:"shift_step,omitempty"`
	// ShiftFraction is the fraction of the population redrawn at the
	// shift (default 0.3; shift model only).
	ShiftFraction float64 `json:"shift_fraction,omitempty"`
	// ShiftMean and ShiftStddev parameterize the post-shift error-rate
	// distribution (defaults 0.45 and 0.05; shift model only).
	ShiftMean   float64 `json:"shift_mean,omitempty"`
	ShiftStddev float64 `json:"shift_stddev,omitempty"`
	// Min and Max clamp every true rate into (Min, Max) after drift
	// (defaults 0.02 and 0.6) so drifting jurors stay valid model inputs
	// while still being allowed to cross the 0.5 usefulness boundary.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Scenario declares one simulated crowd regime. The zero value of every
// optional field selects the documented default; Normalize applies them.
type Scenario struct {
	// Name labels the scenario in reports and pool names.
	Name string `json:"name"`
	// Seed drives every random stream; replication r derives its own
	// independent streams from (Seed, r).
	Seed int64 `json:"seed"`
	// Steps is the number of decision tasks (questions) simulated.
	Steps int `json:"steps"`
	// Population is the crowd size (held constant under churn: every
	// leaver is replaced by a fresh joiner).
	Population int `json:"population"`

	// Source picks the ground-truth generator: normal (default) or
	// microblog (§4 pipeline over a synthetic corpus).
	Source string `json:"source,omitempty"`
	// RateMean and RateStddev parameterize the truncated-normal ε
	// distribution (defaults 0.25 and 0.12; normal source, churn joiners
	// and shift redraws).
	RateMean   float64 `json:"rate_mean,omitempty"`
	RateStddev float64 `json:"rate_stddev,omitempty"`
	// CostMean and CostStddev parameterize payment requirements
	// (defaults 0.2 and 0.1).
	CostMean   float64 `json:"cost_mean,omitempty"`
	CostStddev float64 `json:"cost_stddev,omitempty"`
	// CorpusTweets is the synthetic corpus size for the microblog source
	// (default 5·Population).
	CorpusTweets int `json:"corpus_tweets,omitempty"`

	// Drift declares the ground-truth evolution.
	Drift DriftSpec `json:"drift,omitempty"`
	// ChurnPerStep is the expected number of juror replacements per step
	// (fractional values Bernoulli-round; default 0).
	ChurnPerStep float64 `json:"churn_per_step,omitempty"`
	// Availability is the probability a selected juror actually votes
	// (default 1). Absent voters shrink the effective jury; an even or
	// empty turnout can leave the question undecided.
	Availability float64 `json:"availability,omitempty"`

	// Strategy picks the selection algorithm (default altr).
	Strategy string `json:"strategy,omitempty"`
	// Budget is the pay-model budget (pay and exact strategies).
	Budget float64 `json:"budget,omitempty"`
	// FixedSize is the jury size used by the random and degree baselines
	// (odd; default 5).
	FixedSize int `json:"fixed_size,omitempty"`

	// Lifecycle picks the serving path per question: select (default,
	// one-shot selection) or task (the durable task store's sequential
	// voting with early stop and juror replacement).
	Lifecycle string `json:"lifecycle,omitempty"`
	// TargetConfidence is the task lifecycle's early-stop threshold in
	// (0.5, 1]; exactly 1 disables early stop (fixed-jury voting).
	// Default 0.9.
	TargetConfidence float64 `json:"target_confidence,omitempty"`

	// Estimator picks the estimation policy (default posterior).
	Estimator string `json:"estimator,omitempty"`
	// PriorRate is the initial ε estimate assigned to every juror under
	// the posterior and em policies (default 0.3).
	PriorRate float64 `json:"prior_rate,omitempty"`
	// EMEvery is the EM refresh period in steps (default 25; em only).
	EMEvery int `json:"em_every,omitempty"`

	// WindowSteps is the metrics window width (default max(1, Steps/10)).
	WindowSteps int `json:"window_steps,omitempty"`
	// Replications is the number of independent replications (default 1).
	Replications int `json:"replications,omitempty"`
}

// Normalize returns a copy with every defaultable zero field filled in.
func (sc Scenario) Normalize() Scenario {
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if sc.Source == "" {
		sc.Source = SourceNormal
	}
	if sc.RateMean == 0 {
		sc.RateMean = 0.25
	}
	if sc.RateStddev == 0 {
		sc.RateStddev = 0.12
	}
	if sc.CostMean == 0 {
		sc.CostMean = 0.2
	}
	if sc.CostStddev == 0 {
		sc.CostStddev = 0.1
	}
	if sc.CorpusTweets == 0 {
		sc.CorpusTweets = 5 * sc.Population
	}
	if sc.Drift.Model == "" {
		sc.Drift.Model = DriftStatic
	}
	if sc.Drift.Sigma == 0 {
		sc.Drift.Sigma = 0.01
	}
	if sc.Drift.ShiftStep == 0 {
		sc.Drift.ShiftStep = sc.Steps / 2
	}
	if sc.Drift.ShiftFraction == 0 {
		sc.Drift.ShiftFraction = 0.3
	}
	if sc.Drift.ShiftMean == 0 {
		sc.Drift.ShiftMean = 0.45
	}
	if sc.Drift.ShiftStddev == 0 {
		sc.Drift.ShiftStddev = 0.05
	}
	if sc.Drift.Min == 0 {
		sc.Drift.Min = 0.02
	}
	if sc.Drift.Max == 0 {
		sc.Drift.Max = 0.6
	}
	if sc.Availability == 0 {
		sc.Availability = 1
	}
	if sc.Strategy == "" {
		sc.Strategy = StrategyAltr
	}
	if sc.FixedSize == 0 {
		sc.FixedSize = 5
	}
	if sc.Lifecycle == "" {
		sc.Lifecycle = LifecycleSelect
	}
	if sc.TargetConfidence == 0 {
		sc.TargetConfidence = 0.9
	}
	if sc.Estimator == "" {
		sc.Estimator = EstimatorPosterior
	}
	if sc.PriorRate == 0 {
		sc.PriorRate = 0.3
	}
	if sc.EMEvery == 0 {
		sc.EMEvery = 25
	}
	if sc.WindowSteps == 0 {
		sc.WindowSteps = sc.Steps / 10
		if sc.WindowSteps < 1 {
			sc.WindowSteps = 1
		}
	}
	if sc.Replications == 0 {
		sc.Replications = 1
	}
	return sc
}

// Validate checks a normalized scenario. Call Normalize first.
func (sc Scenario) Validate() error {
	if sc.Steps <= 0 {
		return errors.New("simul: steps must be positive")
	}
	if sc.Population < 3 {
		return errors.New("simul: population must be at least 3")
	}
	switch sc.Source {
	case SourceNormal, SourceMicroblog:
	default:
		return fmt.Errorf("simul: unknown source %q (want %s or %s)", sc.Source, SourceNormal, SourceMicroblog)
	}
	if bad(sc.RateMean) || sc.RateMean <= 0 || sc.RateMean >= 1 {
		return fmt.Errorf("simul: rate_mean %g outside (0,1)", sc.RateMean)
	}
	if bad(sc.RateStddev) || sc.RateStddev < 0 {
		return fmt.Errorf("simul: rate_stddev %g must be non-negative", sc.RateStddev)
	}
	if bad(sc.CostMean) || sc.CostMean < 0 || bad(sc.CostStddev) || sc.CostStddev < 0 {
		return errors.New("simul: cost parameters must be non-negative")
	}
	switch sc.Drift.Model {
	case DriftStatic, DriftWalk, DriftShift:
	default:
		return fmt.Errorf("simul: unknown drift model %q", sc.Drift.Model)
	}
	if bad(sc.Drift.Sigma) || sc.Drift.Sigma < 0 {
		return fmt.Errorf("simul: drift sigma %g must be non-negative", sc.Drift.Sigma)
	}
	if sc.Drift.ShiftFraction < 0 || sc.Drift.ShiftFraction > 1 || bad(sc.Drift.ShiftFraction) {
		return fmt.Errorf("simul: shift_fraction %g outside [0,1]", sc.Drift.ShiftFraction)
	}
	if sc.Drift.Model == DriftShift && (sc.Drift.ShiftStep <= 0 || sc.Drift.ShiftStep >= sc.Steps) {
		return fmt.Errorf("simul: shift_step %d outside (0, steps): the shift would never fire", sc.Drift.ShiftStep)
	}
	if !(0 < sc.Drift.Min && sc.Drift.Min < sc.Drift.Max && sc.Drift.Max < 1) {
		return fmt.Errorf("simul: drift bounds (%g, %g) must satisfy 0 < min < max < 1", sc.Drift.Min, sc.Drift.Max)
	}
	if bad(sc.ChurnPerStep) || sc.ChurnPerStep < 0 || sc.ChurnPerStep > float64(sc.Population) {
		return fmt.Errorf("simul: churn_per_step %g outside [0, population]", sc.ChurnPerStep)
	}
	if bad(sc.Availability) || sc.Availability <= 0 || sc.Availability > 1 {
		return fmt.Errorf("simul: availability %g outside (0,1]", sc.Availability)
	}
	switch sc.Strategy {
	case StrategyAltr, StrategyPay, StrategyExact, StrategyRandom, StrategyDegree:
	default:
		return fmt.Errorf("simul: unknown strategy %q", sc.Strategy)
	}
	if bad(sc.Budget) || sc.Budget < 0 {
		return fmt.Errorf("simul: budget %g must be non-negative", sc.Budget)
	}
	if sc.FixedSize <= 0 || sc.FixedSize%2 == 0 || sc.FixedSize > sc.Population {
		return fmt.Errorf("simul: fixed_size %d must be odd and within the population", sc.FixedSize)
	}
	switch sc.Lifecycle {
	case LifecycleSelect:
	case LifecycleTask:
		if sc.Strategy != StrategyAltr && sc.Strategy != StrategyPay {
			return fmt.Errorf("simul: task lifecycle supports strategies %s and %s, not %q",
				StrategyAltr, StrategyPay, sc.Strategy)
		}
	default:
		return fmt.Errorf("simul: unknown lifecycle %q (want %s or %s)", sc.Lifecycle, LifecycleSelect, LifecycleTask)
	}
	if bad(sc.TargetConfidence) || sc.TargetConfidence <= 0.5 || sc.TargetConfidence > 1 {
		return fmt.Errorf("simul: target_confidence %g outside (0.5, 1]", sc.TargetConfidence)
	}
	switch sc.Estimator {
	case EstimatorOracle, EstimatorPosterior, EstimatorEM:
	default:
		return fmt.Errorf("simul: unknown estimator %q", sc.Estimator)
	}
	if bad(sc.PriorRate) || sc.PriorRate <= 0 || sc.PriorRate >= 1 {
		return fmt.Errorf("simul: prior_rate %g outside (0,1)", sc.PriorRate)
	}
	if sc.EMEvery <= 0 {
		return errors.New("simul: em_every must be positive")
	}
	if sc.WindowSteps <= 0 {
		return errors.New("simul: window_steps must be positive")
	}
	if sc.Replications <= 0 {
		return errors.New("simul: replications must be positive")
	}
	return nil
}

func bad(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// ReadScenario decodes a scenario from JSON (strict fields), normalizes
// and validates it.
func ReadScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("simul: decoding scenario: %w", err)
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Presets returns the named built-in scenarios, the regimes the
// EXPERIMENTS tables and the CI smoke use. Each is already normalized.
func Presets() map[string]Scenario {
	// The shared crowd shape: mean ε 0.4 with spread 0.1 keeps the
	// optimal jury clearly better than chance but far from perfect, so
	// accuracy trajectories neither saturate at 1 nor drown in noise.
	m := map[string]Scenario{
		"convergence": {
			Name: "convergence", Seed: 1, Steps: 800, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Replications: 4,
		},
		"drift": {
			Name: "drift", Seed: 1, Steps: 800, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Drift:        DriftSpec{Model: DriftWalk, Sigma: 0.015},
			Replications: 4,
		},
		"shift": {
			Name: "shift", Seed: 1, Steps: 800, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Drift:        DriftSpec{Model: DriftShift},
			Replications: 4,
		},
		"churn": {
			Name: "churn", Seed: 1, Steps: 800, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			ChurnPerStep: 1.5,
			Replications: 4,
		},
		"flaky": {
			Name: "flaky", Seed: 1, Steps: 800, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Availability: 0.7,
			Replications: 4,
		},
		"budget": {
			Name: "budget", Seed: 1, Steps: 400, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Strategy: StrategyPay, Budget: 1.0,
			Replications: 4,
		},
		"microblog": {
			Name: "microblog", Seed: 1, Steps: 300, Population: 80,
			Source:       SourceMicroblog,
			Replications: 2,
		},
		"smoke": {
			Name: "smoke", Seed: 1, Steps: 40, Population: 15,
			RateMean: 0.4, RateStddev: 0.1,
			ChurnPerStep: 0.5,
			Drift:        DriftSpec{Model: DriftWalk},
			Replications: 2,
		},
		// The decision-task lifecycle: sequential early-stop voting with
		// 80% juror availability, so declines and next-best replacement
		// are exercised on most tasks.
		"task": {
			Name: "task", Seed: 1, Steps: 400, Population: 60,
			RateMean: 0.4, RateStddev: 0.1,
			Availability: 0.8,
			Lifecycle:    LifecycleTask, TargetConfidence: 0.9,
			Replications: 4,
		},
		"task-smoke": {
			Name: "task-smoke", Seed: 1, Steps: 40, Population: 15,
			RateMean: 0.4, RateStddev: 0.1,
			Availability: 0.7,
			Lifecycle:    LifecycleTask, TargetConfidence: 0.9,
			Replications: 2,
		},
	}
	for k, sc := range m {
		m[k] = sc.Normalize()
	}
	return m
}

// Preset returns one named preset.
func Preset(name string) (Scenario, error) {
	sc, ok := Presets()[name]
	if !ok {
		return Scenario{}, fmt.Errorf("simul: unknown preset %q", name)
	}
	return sc, nil
}
