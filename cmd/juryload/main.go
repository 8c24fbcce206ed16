// Command juryload replays scenario-driven crowd traffic against the
// jury-selection stack: the closed-loop simulator of internal/simul as a
// load generator. A scenario declares the crowd (population, error-rate
// distribution, drift, churn, availability), the selection strategy and
// the estimation policy; juryload runs its replications in parallel and
// writes the metrics JSON the EXPERIMENTS tables are built from.
//
// Usage:
//
//	juryload -preset convergence [-mode inprocess] [-out metrics.json]
//	juryload -scenario scenario.json -mode http -addr http://127.0.0.1:8080
//	juryload -list
//
// Modes:
//
//	inprocess  drive a memory-mode task store and engine through the
//	           calls juryd's handlers make, without HTTP (deterministic:
//	           same scenario + seed ⇒ bit-identical JSON)
//	http       drive a live juryd over its wire protocol (pool CRUD +
//	           /v1/select per question), recording request latency and
//	           absorbing 429 shedding via Retry-After backoff
//
// The task presets drive the durable decision-task lifecycle instead of
// one-shot selection: per question a task is created (POST /v1/tasks),
// invited jurors vote or decline one at a time under the availability
// draw, non-responders are replaced by the next-best candidate, and the
// task closes by sequential early stop. -lifecycle and
// -target-confidence switch any scenario into (or tune) that mode:
//
//	juryload -preset task -target-confidence 1 -out fixed.json
//	juryload -preset flaky -lifecycle task -mode http -addr http://127.0.0.1:8080
//
// -insight appends the oracle-truth JER calibration table — reliability
// bins of selection-time predicted JER against realized verdict
// correctness, with the Brier score — the ground-truth counterpart of
// juryd's /v1/insight/calibration endpoint:
//
//	juryload -preset drift -insight -quiet -out /dev/null
//
// Override flags (-seed, -steps, -replications, -strategy, -estimator,
// -lifecycle, -target-confidence) tweak the loaded scenario, so one
// preset sweeps into a whole table:
//
//	for s in altr random degree; do
//	  juryload -preset drift -strategy $s -out drift-$s.json
//	done
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"juryselect/internal/simul"
	"juryselect/internal/tablefmt"
)

type config struct {
	preset       string
	scenarioPath string
	mode         string
	addr         string
	out          string
	seed         int64
	steps        int
	replications int
	strategy     string
	estimator    string
	lifecycle    string
	targetConf   float64
	workers      int
	batch        bool
	trace        bool
	quiet        bool
	list         bool
	insight      bool
	shedRetries  int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.preset, "preset", "", "built-in scenario name (see -list)")
	flag.StringVar(&cfg.scenarioPath, "scenario", "", "scenario JSON file ('-' for stdin)")
	flag.StringVar(&cfg.mode, "mode", simul.ModeInProcess, "inprocess or http")
	flag.StringVar(&cfg.addr, "addr", "", "juryd base URL (http mode), e.g. http://127.0.0.1:8080")
	flag.StringVar(&cfg.out, "out", "", "write metrics JSON to this file (default stdout)")
	flag.Int64Var(&cfg.seed, "seed", 0, "override the scenario seed")
	flag.IntVar(&cfg.steps, "steps", 0, "override the scenario step count")
	flag.IntVar(&cfg.replications, "replications", 0, "override the scenario replication count")
	flag.StringVar(&cfg.strategy, "strategy", "", "override the selection strategy (altr|pay|exact|random|degree)")
	flag.StringVar(&cfg.estimator, "estimator", "", "override the estimation policy (oracle|posterior|em)")
	flag.StringVar(&cfg.lifecycle, "lifecycle", "", "override the lifecycle (select|task)")
	flag.Float64Var(&cfg.targetConf, "target-confidence", 0, "override the task early-stop confidence target in (0.5, 1]; 1 = fixed jury")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel replications (0 = all cores)")
	flag.BoolVar(&cfg.batch, "batch", false, "use the batch wire protocol: coalesced /v1/select/batch round trips (http mode) and whole-round /v1/tasks/{id}/votes/batch posts")
	flag.BoolVar(&cfg.trace, "trace", false, "include the per-step trace in the JSON")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the human-readable summary")
	flag.BoolVar(&cfg.list, "list", false, "list built-in presets and exit")
	flag.BoolVar(&cfg.insight, "insight", false, "print the oracle-truth JER calibration table (reliability bins and Brier score)")
	flag.IntVar(&cfg.shedRetries, "shed-retries", 0, "429 retries per select or task create before a step is shed (http mode, 0 = default)")
	flag.Parse()

	if err := run(context.Background(), cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "juryload: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	if cfg.list {
		return listPresets(stdout)
	}
	sc, err := loadScenario(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := simul.Run(ctx, sc, simul.Options{
		Mode:        cfg.mode,
		Addr:        cfg.addr,
		Workers:     cfg.workers,
		Batch:       cfg.batch,
		Trace:       cfg.trace,
		ShedRetries: cfg.shedRetries,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	raw, err := rep.Marshal()
	if err != nil {
		return err
	}
	if cfg.out == "" {
		if _, err := stdout.Write(raw); err != nil {
			return err
		}
	} else if err := os.WriteFile(cfg.out, raw, 0o644); err != nil {
		return err
	}
	if !cfg.quiet {
		printSummary(stderr, rep, elapsed)
	}
	if cfg.insight {
		if err := printCalibration(stderr, rep); err != nil {
			return err
		}
	}
	return nil
}

// printCalibration renders the merged reliability diagram: how the
// selection-time predicted JER tracked the oracle outcome, bin by bin.
// This is the simlab ground-truth view of the same diagram juryd serves
// from /v1/insight/calibration (where realized error is posterior
// confidence, not latent truth).
func printCalibration(w io.Writer, rep *simul.Report) error {
	cal := rep.Summary.OracleCalibration
	if cal == nil {
		fmt.Fprintln(w, "no calibration samples: no step reached a verdict")
		return nil
	}
	tb := tablefmt.New(
		fmt.Sprintf("JER calibration vs oracle truth (%d verdicts, Brier %.6f)", cal.Total, cal.Brier),
		"bin", "verdicts", "mean predicted", "realized error", "gap")
	for _, b := range cal.Bins {
		tb.AddRow(
			fmt.Sprintf("[%.3f, %.3f)", b.Lo, b.Hi),
			b.Count,
			fmt.Sprintf("%.4f", b.MeanPredicted),
			fmt.Sprintf("%.4f", b.MeanRealized),
			fmt.Sprintf("%+.4f", b.MeanRealized-b.MeanPredicted),
		)
	}
	return tb.Render(w)
}

// loadScenario resolves the preset/file choice and applies overrides.
func loadScenario(cfg config) (simul.Scenario, error) {
	var sc simul.Scenario
	switch {
	case cfg.preset != "" && cfg.scenarioPath != "":
		return sc, fmt.Errorf("-preset and -scenario are mutually exclusive")
	case cfg.preset != "":
		var err error
		if sc, err = simul.Preset(cfg.preset); err != nil {
			return sc, err
		}
	case cfg.scenarioPath != "":
		r := io.Reader(os.Stdin)
		if cfg.scenarioPath != "-" {
			f, err := os.Open(cfg.scenarioPath)
			if err != nil {
				return sc, err
			}
			defer f.Close()
			r = f
		}
		var err error
		if sc, err = simul.ReadScenario(r); err != nil {
			return sc, err
		}
	default:
		return sc, fmt.Errorf("need -preset or -scenario (try -list)")
	}
	if cfg.seed != 0 {
		sc.Seed = cfg.seed
	}
	if cfg.steps != 0 {
		sc.Steps = cfg.steps
		// Re-derive the length-dependent defaults; keeping the old values
		// would mean wrong-width windows and, for shift scenarios, a
		// shift step that may never fire.
		sc.WindowSteps = 0
		sc.Drift.ShiftStep = 0
	}
	if cfg.replications != 0 {
		sc.Replications = cfg.replications
	}
	if cfg.strategy != "" {
		sc.Strategy = cfg.strategy
	}
	if cfg.estimator != "" {
		sc.Estimator = cfg.estimator
	}
	if cfg.lifecycle != "" {
		sc.Lifecycle = cfg.lifecycle
	}
	if cfg.targetConf != 0 {
		sc.TargetConfidence = cfg.targetConf
	}
	sc = sc.Normalize()
	return sc, sc.Validate()
}

func listPresets(w io.Writer) error {
	presets := simul.Presets()
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	tb := tablefmt.New("Built-in scenarios", "name", "steps", "population", "drift", "churn/step", "strategy", "lifecycle", "estimator", "replications")
	for _, name := range names {
		sc := presets[name]
		tb.AddRow(name, sc.Steps, sc.Population, sc.Drift.Model, sc.ChurnPerStep, sc.Strategy, sc.Lifecycle, sc.Estimator, sc.Replications)
	}
	return tb.Render(w)
}

// printSummary renders the human-readable digest of a run.
func printSummary(w io.Writer, rep *simul.Report, elapsed time.Duration) {
	s := rep.Summary
	sc := rep.Scenario
	totalSteps := sc.Steps * sc.Replications
	fmt.Fprintf(w, "scenario %q: %d steps × %d replications (%s mode) in %s (%.0f steps/s)\n",
		sc.Name, sc.Steps, sc.Replications, rep.Mode, elapsed.Round(time.Millisecond),
		float64(totalSteps)/elapsed.Seconds())
	fmt.Fprintf(w, "accuracy %.4f  regret %.6f  calibration %.6f  window accuracy %.4f → %.4f\n",
		s.Accuracy, s.MeanRegret, s.MeanCalibration, s.FirstWindowAccuracy, s.LastWindowAccuracy)
	if sc.Lifecycle == simul.LifecycleTask {
		var declines, replacements int
		for _, r := range rep.Replications {
			declines += r.TotalDeclines
			replacements += r.Replacements
		}
		fmt.Fprintf(w, "votes/task %.2f  early-stop rate %.2f  declines %d  replacements %d\n",
			s.MeanVotesSpent, s.EarlyStopRate, declines, replacements)
		if s.MeanVotesToVerdict > 0 {
			fmt.Fprintf(w, "time-to-verdict %.2f votes (jury %.2f seats, saved %.2f/verdict vs fixed)\n",
				s.MeanVotesToVerdict, s.MeanJurySize, s.MeanVotesSaved)
		}
	}
	if rep.Mode == simul.ModeHTTP {
		fmt.Fprintf(w, "shed %d steps (rate %.4f), %d retries absorbed\n", s.TotalShed, s.ShedRate, s.TotalRetries)
		if lat := rep.Replications[0].Latency; lat != nil {
			op := "select"
			if sc.Lifecycle == simul.LifecycleTask {
				op = "create"
			}
			fmt.Fprintf(w, "%s latency (rep 0): p50 %s  p95 %s  p99 %s  max %s\n", op,
				time.Duration(lat.P50NS), time.Duration(lat.P95NS), time.Duration(lat.P99NS), time.Duration(lat.MaxNS))
		}
	}
}
