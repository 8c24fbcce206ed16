package simul

import (
	"context"
	"errors"
	"fmt"

	"juryselect/internal/core"
	"juryselect/internal/obs"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// runReplication drives one replication's closed loop: per step it
// drifts and churns the ground truth, publishes the estimator's view to
// the backend pool, selects a jury, samples availability and votes from
// the true rates, aggregates the majority decision, scores the step
// against the per-step oracle, and folds the observations back into the
// estimator.
//
// Every random draw comes from the replication's world streams in a
// fixed order, and the backend consumes none — so the in-process and
// HTTP backends walk identical trajectories until the first shed
// request.
func runReplication(ctx context.Context, sc Scenario, rep int, be backend, eng *jury.Engine, batch, trace bool) (RepResult, error) {
	if sc.Lifecycle == LifecycleTask {
		return runTaskReplication(ctx, sc, rep, be, eng, batch, trace)
	}
	w, err := newWorld(sc, rep)
	if err != nil {
		return RepResult{}, err
	}
	est := newEstimator(sc)
	poolName := fmt.Sprintf("sim-%s-r%d", sc.Name, rep)
	if err := be.PutPool(ctx, poolName, est.initialPool(w)); err != nil {
		return RepResult{}, err
	}
	defer be.DeletePool(context.WithoutCancel(ctx), poolName) //nolint:errcheck // best-effort cleanup

	res := RepResult{Replication: rep, Steps: sc.Steps}
	var (
		records        []StepRecord // always built; exported only when tracing
		latHist        obs.Histogram
		sumRegret      float64
		sumCalibration float64
		sumJurySize    int
		scored         int // non-shed steps
	)
	for step := 0; step < sc.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return RepResult{}, err
		}

		// 1. Ground truth evolves; the estimator publishes what its
		// policy is allowed to see.
		var ups []pool.JurorUpdate
		if w.applyDrift(step) {
			ups = est.driftUpdates(w)
		}
		ups = append(ups, est.churnUpdates(w.applyChurn())...)
		if len(ups) > 0 {
			if err := be.Patch(ctx, poolName, ups); err != nil {
				return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
			}
		}

		// 2. A question arrives with a latent binary truth.
		truth := w.truth.Bernoulli(0.5)

		// 3. Select the jury.
		var (
			out  selectOutcome
			shed bool
		)
		switch sc.Strategy {
		case StrategyRandom:
			out, err = est.selectRandom(w, eng)
		case StrategyDegree:
			out, err = est.selectDegree(w, eng)
		default:
			out, err = be.Select(ctx, poolName, sc)
			if errors.Is(err, errStepShed) {
				shed, err = true, nil
			}
		}
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		res.Retries += out.Retried
		if out.LatencyNS > 0 && !shed {
			// Shed attempts are fast rejections; folding them in would
			// deflate the latency summary exactly when the service is
			// overloaded.
			latHist.Observe(out.LatencyNS)
		}
		if out.PoolVersion > res.FinalPoolVersion {
			res.FinalPoolVersion = out.PoolVersion
		}

		rec := StepRecord{Step: step, Shed: shed, PoolVersion: out.PoolVersion}
		if shed {
			// Overload: the question goes unanswered. Record and move on
			// — the vote streams for this step are simply never drawn, so
			// the replication stays deterministic given the shed pattern.
			res.Shed++
			records = append(records, rec)
			continue
		}

		// 4. Availability: who actually votes (Mahmud et al.'s point —
		// the selected are not always the responding).
		responders := make([]string, 0, len(out.IDs))
		for _, id := range out.IDs {
			if w.avail.Bernoulli(sc.Availability) {
				responders = append(responders, id)
			}
		}

		// 5. Votes from the TRUE rates; majority decision.
		votes := make([]bool, len(responders))
		yes := 0
		for i, id := range responders {
			j, ok := w.find(id)
			if !ok {
				return RepResult{}, fmt.Errorf("simul: step %d: responder %q vanished", step, id)
			}
			v := truth
			if w.votes.Bernoulli(j.TrueRate) {
				v = !truth
			}
			votes[i] = v
			if v {
				yes++
			}
		}
		no := len(responders) - yes
		decided := yes != no // zero responders or a tie leave it undecided
		correct := decided && ((yes > no) == truth)

		// 6. Score against the per-step oracle: the same selection family
		// run over the TRUE rates.
		trueRates, err := w.trueRatesOf(out.IDs)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		trueJER, err := eng.JER(trueRates)
		if err != nil {
			return RepResult{}, err
		}
		oracleJER, err := oracleJER(sc, w, eng)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: oracle: %w", step, err)
		}

		scored++
		sumJurySize += len(out.IDs)
		sumRegret += trueJER - oracleJER
		calib := out.PredictedJER - trueJER
		if calib < 0 {
			calib = -calib
		}
		sumCalibration += calib
		res.TotalSpend += out.Cost
		switch {
		case correct:
			res.Correct++
			res.Decided++
		case decided:
			res.Decided++
		default:
			res.Undecided++
		}

		rec.JurySize = len(out.IDs)
		rec.Responders = len(responders)
		rec.Decided = decided
		rec.Correct = correct
		rec.PredictedJER = out.PredictedJER
		rec.TrueJER = trueJER
		rec.OracleJER = oracleJER
		rec.Regret = trueJER - oracleJER
		rec.Calibration = calib
		rec.Spend = out.Cost
		records = append(records, rec)

		// 7. Close the loop: the truth resolves and the observed votes
		// update the estimator (and, through it, the live pool).
		vups, err := est.observeVotes(step, truth, responders, votes, w)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		if len(vups) > 0 {
			if err := be.Patch(ctx, poolName, vups); err != nil {
				return RepResult{}, fmt.Errorf("simul: step %d: folding votes: %w", step, err)
			}
		}
	}

	if attempted := sc.Steps - res.Shed; attempted > 0 {
		res.Accuracy = float64(res.Correct) / float64(attempted)
	}
	if scored > 0 {
		res.MeanRegret = sumRegret / float64(scored)
		res.MeanCalibration = sumCalibration / float64(scored)
		res.MeanJurySize = float64(sumJurySize) / float64(scored)
	}
	res.Windows = windowize(sc, records)
	res.attachOracleCalibration(records)
	res.Latency = summarizeHist(&latHist)
	if trace {
		res.Trace = records
	}
	return res, nil
}

// oracleJER selects with the scenario's strategy family over the TRUE
// rates and returns the resulting jury's exact JER — the per-step
// benchmark the regret metric is measured against. Baselines are scored
// against the altruistic optimum: their whole point is quantifying the
// price of not optimizing.
func oracleJER(sc Scenario, w *world, eng *jury.Engine) (float64, error) {
	cands := w.oracleCandidates()
	var sel jury.Selection
	var err error
	switch sc.Strategy {
	case StrategyPay:
		sel, err = core.SelectPay(cands, core.PayOptions{Budget: sc.Budget})
	case StrategyExact:
		sel, err = core.SelectOpt(cands, sc.Budget)
	default:
		sel, err = core.SelectAltr(cands, core.AltrOptions{Incremental: true})
	}
	if err != nil {
		return 0, err
	}
	// Re-evaluate through the shared engine memo so the repeated
	// oracle juries of a static crowd cost one computation, and the
	// value is byte-stable with the trueJER computed the same way.
	return eng.JER(sel.Rates())
}

// windowize aggregates the trace into fixed-width windows. It requires
// the trace, which runReplication always builds internally before
// optionally discarding it.
func windowize(sc Scenario, trace []StepRecord) []Window {
	if len(trace) == 0 {
		return nil
	}
	var out []Window
	for start := 0; start < sc.Steps; start += sc.WindowSteps {
		end := start + sc.WindowSteps
		if end > sc.Steps {
			end = sc.Steps
		}
		w := Window{StartStep: start, EndStep: end}
		var regret, calib float64
		scored := 0
		for _, r := range trace {
			if r.Step < start || r.Step >= end {
				continue
			}
			if r.Shed {
				w.Shed++
				continue
			}
			scored++
			if r.Decided {
				w.Decided++
			}
			if r.Correct {
				w.Correct++
			}
			regret += r.Regret
			calib += r.Calibration
		}
		if attempted := (end - start) - w.Shed; attempted > 0 {
			w.Accuracy = float64(w.Correct) / float64(attempted)
		}
		if scored > 0 {
			w.MeanRegret = regret / float64(scored)
			w.MeanCalibration = calib / float64(scored)
		}
		out = append(out, w)
	}
	return out
}
