package simul

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// tinyScenarios is the table the determinism tests sweep: one scenario
// per mechanism (drift models, churn, availability, strategies,
// estimators, sources) so a nondeterminism regression in any of them
// breaks the bit-identity assertion.
func tinyScenarios() []Scenario {
	return []Scenario{
		{Name: "static-posterior", Seed: 7, Steps: 30, Population: 12, Replications: 2},
		{Name: "walk-posterior", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Drift: DriftSpec{Model: DriftWalk, Sigma: 0.02}},
		{Name: "shift-oracle", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Drift: DriftSpec{Model: DriftShift}, Estimator: EstimatorOracle},
		{Name: "churn-posterior", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			ChurnPerStep: 0.8},
		{Name: "flaky-posterior", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Availability: 0.6},
		{Name: "pay-greedy", Seed: 7, Steps: 25, Population: 12, Replications: 2,
			Strategy: StrategyPay, Budget: 1.2},
		{Name: "exact-small", Seed: 7, Steps: 10, Population: 10, Replications: 1,
			Strategy: StrategyExact, Budget: 1.2},
		{Name: "random-baseline", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Strategy: StrategyRandom},
		{Name: "degree-baseline", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Strategy: StrategyDegree},
		{Name: "em-refresh", Seed: 7, Steps: 30, Population: 12, Replications: 2,
			Estimator: EstimatorEM, EMEvery: 10},
		{Name: "microblog-src", Seed: 7, Steps: 20, Population: 40, Replications: 1,
			Source: SourceMicroblog},
		{Name: "task-early-stop", Seed: 7, Steps: 25, Population: 12, Replications: 2,
			Lifecycle: LifecycleTask, Availability: 0.7},
		{Name: "task-fixed-jury", Seed: 7, Steps: 25, Population: 12, Replications: 2,
			Lifecycle: LifecycleTask, TargetConfidence: 1},
		{Name: "task-pay", Seed: 7, Steps: 20, Population: 12, Replications: 2,
			Lifecycle: LifecycleTask, Strategy: StrategyPay, Budget: 1.2, Availability: 0.8},
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/reports.golden")

const reportsGolden = "testdata/reports.golden"

// TestMetricsBitIdentical is the determinism contract: same scenario +
// seed ⇒ bit-identical metrics JSON, run over run, and equal to the
// trajectory pinned in testdata/reports.golden (one SHA-256 per traced
// report), so a change that moves every run the same way still fails.
// Each tinyScenarios entry runs once, and each task entry again under
// the batch protocol. -update rewrites the golden file; only a change
// meant to move the trajectories may do that.
func TestMetricsBitIdentical(t *testing.T) {
	type goldenCase struct {
		name  string
		sc    Scenario
		batch bool
	}
	var cases []goldenCase
	for _, sc := range tinyScenarios() {
		cases = append(cases, goldenCase{sc.Name, sc, false})
	}
	for _, sc := range tinyScenarios() {
		if sc.Lifecycle == LifecycleTask {
			cases = append(cases, goldenCase{sc.Name + "-batch", sc, true})
		}
	}
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(reportsGolden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if sum, name, ok := strings.Cut(line, "  "); ok {
				want[name] = sum
			}
		}
	}
	got := make([]string, len(cases))
	t.Cleanup(func() {
		if !*updateGolden || t.Failed() {
			return
		}
		var b strings.Builder
		for i, c := range cases {
			if got[i] == "" {
				t.Errorf("-update rewrites every hash, but %s did not run", c.name)
				return
			}
			fmt.Fprintf(&b, "%s  %s\n", got[i], c.name)
		}
		if err := os.WriteFile(reportsGolden, []byte(b.String()), 0o644); err != nil {
			t.Error(err)
		}
	})
	for i, c := range cases {
		i, c := i, c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func() []byte {
				rep, err := Run(context.Background(), c.sc, Options{Trace: true, Batch: c.batch})
				if err != nil {
					t.Fatal(err)
				}
				raw, err := rep.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			a, b := run(), run()
			if !bytes.Equal(a, b) {
				t.Fatalf("metrics JSON differs between identical runs:\n%s\n----\n%s", clip(a), clip(b))
			}
			sum := sha256.Sum256(a)
			got[i] = hex.EncodeToString(sum[:])
			if !*updateGolden && got[i] != want[c.name] {
				t.Fatalf("report SHA-256 %s, %s pins %q: the trajectory moved", got[i], reportsGolden, want[c.name])
			}
		})
	}
}

// TestMetricsWorkerCountInvariant: the replication fan-out must not leak
// scheduling into the metrics.
func TestMetricsWorkerCountInvariant(t *testing.T) {
	sc := Scenario{Name: "fanout", Seed: 3, Steps: 25, Population: 12, Replications: 6,
		Drift: DriftSpec{Model: DriftWalk}, ChurnPerStep: 0.5}
	run := func(workers int) []byte {
		rep, err := Run(context.Background(), sc, Options{Workers: workers, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("worker count changed the metrics:\n%s\n----\n%s", clip(serial), clip(parallel))
	}
}

func clip(b []byte) []byte {
	if len(b) > 2000 {
		return b[:2000]
	}
	return b
}

// TestTaskEarlyStopSpendsFewerVotes is the pay-as-you-go claim taken
// online: at the same scenario, sequential early stop (target 0.9)
// must spend meaningfully fewer votes per verdict than fixed-jury
// voting (target 1) while staying within a few accuracy points of it —
// and the availability gap must actually exercise decline/replacement.
func TestTaskEarlyStopSpendsFewerVotes(t *testing.T) {
	base := Scenario{Name: "spend", Seed: 11, Steps: 120, Population: 30,
		RateMean: 0.4, RateStddev: 0.1, Availability: 0.8,
		Lifecycle: LifecycleTask, Replications: 2}
	run := func(target float64) *Report {
		sc := base
		sc.TargetConfidence = target
		rep, err := Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	early, fixed := run(0.9), run(1)
	if early.Summary.MeanVotesSpent <= 0 || fixed.Summary.MeanVotesSpent <= 0 {
		t.Fatalf("vote accounting missing: early %g fixed %g",
			early.Summary.MeanVotesSpent, fixed.Summary.MeanVotesSpent)
	}
	if early.Summary.MeanVotesSpent >= fixed.Summary.MeanVotesSpent {
		t.Fatalf("early stop spent %.2f votes/task, fixed jury %.2f — no saving",
			early.Summary.MeanVotesSpent, fixed.Summary.MeanVotesSpent)
	}
	if early.Summary.EarlyStopRate == 0 {
		t.Fatal("no task ever early-stopped at target 0.9")
	}
	if fixed.Summary.EarlyStopRate != 0 {
		t.Fatalf("fixed-jury run early-stopped with rate %g", fixed.Summary.EarlyStopRate)
	}
	if diff := fixed.Summary.Accuracy - early.Summary.Accuracy; diff > 0.1 {
		t.Fatalf("early stop gave up %.3f accuracy (early %.3f vs fixed %.3f)",
			diff, early.Summary.Accuracy, fixed.Summary.Accuracy)
	}
	// 20% no-shows must surface as declines and replacements.
	var declines, replacements int
	for _, r := range early.Replications {
		declines += r.TotalDeclines
		replacements += r.Replacements
	}
	if declines == 0 || replacements == 0 {
		t.Fatalf("availability 0.8 produced %d declines, %d replacements", declines, replacements)
	}
	t.Logf("votes/task: early-stop %.2f vs fixed %.2f (accuracy %.3f vs %.3f, early-stop rate %.2f)",
		early.Summary.MeanVotesSpent, fixed.Summary.MeanVotesSpent,
		early.Summary.Accuracy, fixed.Summary.Accuracy, early.Summary.EarlyStopRate)
}

// TestTimeToVerdictReporting checks the PR 10 report block: the exact
// votes-to-verdict distribution per replication (the simulation's
// time-to-verdict, counted in sequential responses), and the pooled
// summary that EXPERIMENTS compares against the fixed-jury cost.
func TestTimeToVerdictReporting(t *testing.T) {
	base := Scenario{Name: "ttv", Seed: 11, Steps: 120, Population: 30,
		RateMean: 0.4, RateStddev: 0.1, Availability: 0.8,
		Lifecycle: LifecycleTask, Replications: 2}
	run := func(target float64) *Report {
		sc := base
		sc.TargetConfidence = target
		rep, err := Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	early, fixed := run(0.9), run(1)

	for _, r := range early.Replications {
		tv := r.VotesToVerdict
		if tv == nil || tv.Count != r.Decided {
			t.Fatalf("rep %d: votes_to_verdict %+v, want one sample per decided task (%d)",
				r.Replication, tv, r.Decided)
		}
		if got := tv.Mean * float64(tv.Count); math.Abs(got-float64(r.VerdictVotes)) > 1e-9 {
			t.Fatalf("rep %d: mean %.4f × count %d != verdict votes %d",
				r.Replication, tv.Mean, tv.Count, r.VerdictVotes)
		}
		if tv.P50 > tv.P90 || tv.P90 > tv.Max {
			t.Fatalf("rep %d: quantiles out of order: %+v", r.Replication, tv)
		}
	}
	es, fs := early.Summary, fixed.Summary
	if es.MeanVotesToVerdict <= 0 || es.MeanJurySize <= 0 {
		t.Fatalf("summary missing time-to-verdict: %+v", es)
	}
	if es.MeanVotesToVerdict >= fs.MeanVotesToVerdict {
		t.Fatalf("early stop took %.2f votes/verdict, fixed jury %.2f — no speedup",
			es.MeanVotesToVerdict, fs.MeanVotesToVerdict)
	}
	if es.MeanVotesSaved <= 0 {
		t.Fatalf("early stop saved %.2f votes/verdict vs its %0.2f-seat jury, want > 0",
			es.MeanVotesSaved, es.MeanJurySize)
	}
	t.Logf("time-to-verdict: early-stop %.2f vs fixed %.2f votes (jury %.2f, saved %.2f)",
		es.MeanVotesToVerdict, fs.MeanVotesToVerdict, es.MeanJurySize, es.MeanVotesSaved)
}

// TestTaskStepAccounting: the task lifecycle preserves the partition
// invariants and emits the task-specific trace fields.
func TestTaskStepAccounting(t *testing.T) {
	sc := Scenario{Name: "task-acct", Seed: 23, Steps: 40, Population: 14,
		Lifecycle: LifecycleTask, Availability: 0.7, Replications: 2}
	rep, err := Run(context.Background(), sc, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Replications {
		if r.Decided+r.Undecided+r.Shed != r.Steps {
			t.Fatalf("rep %d: partition broken: %+v", r.Replication, r)
		}
		var votes int
		for _, s := range r.Trace {
			if s.Shed {
				continue
			}
			if s.VotesSpent < 0 || s.VotesSpent > s.JurySize+s.Declines {
				t.Fatalf("step %d: votes %d outside [0, %d]", s.Step, s.VotesSpent, s.JurySize+s.Declines)
			}
			if s.Decided && s.Confidence < 0.5 {
				t.Fatalf("step %d: decided with confidence %g", s.Step, s.Confidence)
			}
			votes += s.VotesSpent
		}
		if votes != r.TotalVotes {
			t.Fatalf("rep %d: trace votes %d != total %d", r.Replication, votes, r.TotalVotes)
		}
	}
}

// TestStepAccounting: the per-replication partition invariants hold.
func TestStepAccounting(t *testing.T) {
	sc := Scenario{Name: "acct", Seed: 11, Steps: 40, Population: 15, Replications: 3,
		ChurnPerStep: 0.5, Availability: 0.5}
	rep, err := Run(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Replications {
		if r.Decided+r.Undecided+r.Shed != r.Steps {
			t.Errorf("rep %d: %d decided + %d undecided + %d shed != %d steps",
				r.Replication, r.Decided, r.Undecided, r.Shed, r.Steps)
		}
		if r.Correct > r.Decided {
			t.Errorf("rep %d: correct %d > decided %d", r.Replication, r.Correct, r.Decided)
		}
		if r.Shed != 0 {
			t.Errorf("rep %d: in-process run shed %d steps", r.Replication, r.Shed)
		}
		if len(r.Windows) == 0 {
			t.Errorf("rep %d: no windows", r.Replication)
		}
		if r.Latency != nil {
			t.Errorf("rep %d: in-process run reported latency", r.Replication)
		}
	}
	if rep.Summary.Accuracy <= 0.5 {
		t.Errorf("availability-0.5 crowd should still beat coin flipping, accuracy = %g", rep.Summary.Accuracy)
	}
}

// TestPosteriorBeatsRandomAndConverges reproduces the paper-shaped
// headline at test scale: posterior-estimated altruistic selection is
// more accurate than the random and degree baselines, and its regret
// shrinks as votes accumulate.
func TestPosteriorBeatsRandomAndConverges(t *testing.T) {
	base := Scenario{Seed: 5, Steps: 120, Population: 25, Replications: 3}
	run := func(name, strategy, estimator string) *Report {
		sc := base
		sc.Name, sc.Strategy, sc.Estimator = name, strategy, estimator
		rep, err := Run(context.Background(), sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	posterior := run("posterior", StrategyAltr, EstimatorPosterior)
	oracle := run("oracle", StrategyAltr, EstimatorOracle)
	random := run("random", StrategyRandom, EstimatorPosterior)
	degree := run("degree", StrategyDegree, EstimatorPosterior)

	if posterior.Summary.Accuracy <= random.Summary.Accuracy {
		t.Errorf("posterior accuracy %.3f not above random %.3f",
			posterior.Summary.Accuracy, random.Summary.Accuracy)
	}
	if posterior.Summary.Accuracy <= degree.Summary.Accuracy {
		t.Errorf("posterior accuracy %.3f not above degree %.3f",
			posterior.Summary.Accuracy, degree.Summary.Accuracy)
	}
	if oracle.Summary.Accuracy < posterior.Summary.Accuracy-0.05 {
		t.Errorf("oracle accuracy %.3f below posterior %.3f: oracle must upper-bound",
			oracle.Summary.Accuracy, posterior.Summary.Accuracy)
	}
	// Convergence: regret in the last window of the run is below the
	// first window's (estimates tighten as votes accumulate).
	firstRegret, lastRegret := windowRegretEnds(posterior)
	if lastRegret >= firstRegret {
		t.Errorf("posterior regret did not shrink: first-window %.5f, last-window %.5f",
			firstRegret, lastRegret)
	}
	// And the oracle has (near-)zero regret by construction.
	if oracle.Summary.MeanRegret > 1e-12 {
		t.Errorf("oracle regret %g, want 0", oracle.Summary.MeanRegret)
	}
}

// windowRegretEnds averages the first- and last-window mean regret
// across replications.
func windowRegretEnds(rep *Report) (first, last float64) {
	for _, r := range rep.Replications {
		n := len(r.Windows)
		first += r.Windows[0].MeanRegret
		last += r.Windows[n-1].MeanRegret
	}
	n := float64(len(rep.Replications))
	return first / n, last / n
}

func TestScenarioValidation(t *testing.T) {
	valid := Scenario{Name: "ok", Steps: 10, Population: 5}.Normalize()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"no steps":       func(s *Scenario) { s.Steps = 0 },
		"tiny crowd":     func(s *Scenario) { s.Population = 2 },
		"bad source":     func(s *Scenario) { s.Source = "csv" },
		"bad drift":      func(s *Scenario) { s.Drift.Model = "chaos" },
		"bad bounds":     func(s *Scenario) { s.Drift.Min = 0.9 },
		"bad strategy":   func(s *Scenario) { s.Strategy = "best" },
		"even fixed":     func(s *Scenario) { s.FixedSize = 4 },
		"bad estimator":  func(s *Scenario) { s.Estimator = "magic" },
		"bad avail":      func(s *Scenario) { s.Availability = 1.5 },
		"negative churn": func(s *Scenario) { s.ChurnPerStep = -1 },
		"bad prior":      func(s *Scenario) { s.PriorRate = 1 },
		"shift never fires": func(s *Scenario) {
			s.Drift.Model = DriftShift
			s.Drift.ShiftStep = s.Steps // one past the last step
		},
	} {
		sc := valid
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestPresetsAreValid(t *testing.T) {
	for name, sc := range Presets() {
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := Preset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestReadScenario(t *testing.T) {
	sc, err := ReadScenario(bytes.NewReader([]byte(`{
		"name": "file", "seed": 4, "steps": 20, "population": 10,
		"drift": {"model": "walk", "sigma": 0.02}, "churn_per_step": 0.5
	}`)))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Drift.Model != DriftWalk || sc.Replications != 1 || sc.WindowSteps != 2 {
		t.Errorf("scenario = %+v", sc)
	}
	if _, err := ReadScenario(bytes.NewReader([]byte(`{"steps": 0}`))); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := ReadScenario(bytes.NewReader([]byte(`{"stepz": 5}`))); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestMixSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for rep := 0; rep < 100; rep++ {
		s := mixSeed(42, rep)
		if seen[s] {
			t.Fatalf("duplicate replication seed at rep %d", rep)
		}
		seen[s] = true
	}
	if mixSeed(1, 0) == mixSeed(2, 0) {
		t.Error("scenario seeds collide")
	}
}

// BenchmarkRun times one whole in-process run of a drifting, churning
// 40-juror crowd, four replications of 100 steps, and reports simulated
// steps/s. serial runs the replications on one worker and parallel on
// one per core; both reports are byte-identical. task and task-batch run
// the same crowd through the task lifecycle at availability 0.8 on one
// worker, walking each invitation queue one invitee or one round per
// call.
func BenchmarkRun(b *testing.B) {
	sc := Scenario{
		Name: "bench", Seed: 23, Steps: 100, Population: 40,
		RateMean: 0.4, RateStddev: 0.1,
		Drift:        DriftSpec{Model: DriftWalk},
		ChurnPerStep: 0.5,
		Replications: 4,
	}
	task := sc
	task.Lifecycle, task.Availability = LifecycleTask, 0.8
	for _, bc := range []struct {
		name    string
		sc      Scenario
		workers int
		batch   bool
	}{
		{"serial", sc, 1, false},
		{"parallel", sc, 0, false},
		{"task", task, 1, false},
		{"task-batch", task, 1, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), bc.sc, Options{Workers: bc.workers, Batch: bc.batch}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.sc.Steps*bc.sc.Replications*b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
