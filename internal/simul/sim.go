package simul

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"juryselect/internal/core"
	"juryselect/internal/obs"
	"juryselect/internal/pool"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// runReplication drives one replication's closed loop. Per step it
// drifts and churns the ground truth and publishes the estimator's view
// to the backend pool, draws the question's latent truth, asks the
// question, scores the initial jury against the per-step oracle, and
// folds the observed votes back into the estimator. Only the ask step
// depends on the lifecycle: a select polls the selected jury once and
// the majority decides; a task walks its invitation queue until the
// store closes it.
//
// Every random draw comes from the replication's world streams in a
// fixed order, and the backend consumes none — so the in-process and
// HTTP backends walk identical trajectories until the first shed
// request.
func runReplication(ctx context.Context, sc Scenario, rep int, be backend, eng *jury.Engine, batch, trace bool) (RepResult, error) {
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

	task := sc.Lifecycle == LifecycleTask
	res := RepResult{Replication: rep, Steps: sc.Steps}
	var (
		records        []StepRecord // always built; exported only when tracing
		latHist        obs.Histogram
		sumRegret      float64
		sumCalibration float64
		sumJurySize    int
		scored         int   // non-shed steps
		verdictVotes   []int // votes spent per decided task
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

		// 3. Select the jury: a task create selects inside the store.
		var sel selection
		switch {
		case task:
			sel, err = be.CreateTask(ctx, poolName, sc)
		case sc.Strategy == StrategyRandom:
			sel, err = est.selectRandom(w, eng)
		case sc.Strategy == StrategyDegree:
			sel, err = est.selectDegree(w, eng)
		default:
			sel, err = be.Select(ctx, poolName, sc)
		}
		shed := errors.Is(err, errStepShed)
		if err != nil && !shed {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		res.Retries += sel.Retried
		if sel.LatencyNS > 0 && !shed {
			// Shed attempts are fast rejections; folding them in would
			// deflate the latency summary exactly when the service is
			// overloaded.
			latHist.Observe(sel.LatencyNS)
		}
		if sel.PoolVersion > res.FinalPoolVersion {
			res.FinalPoolVersion = sel.PoolVersion
		}

		rec := StepRecord{Step: step, Shed: shed, PoolVersion: sel.PoolVersion}
		if shed {
			// Overload: the question goes unanswered. Record and move on
			// — the vote streams for this step are simply never drawn, so
			// the replication stays deterministic given the shed pattern.
			res.Shed++
			records = append(records, rec)
			continue
		}

		// 4. Ask the question: an asked juror answers with the scenario's
		// availability and votes from their TRUE rate.
		var ans answer
		if task {
			ans, err = walkQueue(ctx, w, be, sel, truth, batch)
		} else {
			ans, err = poll(w, sel.IDs, truth)
		}
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		correct := ans.Decided && ans.VerdictYes == truth

		// 5. Score the initial jury against the per-step oracle: the same
		// selection family run over the TRUE rates. A task's replacements
		// are a degraded-crowd response, not a new selection decision.
		trueRates, err := w.trueRatesOf(sel.IDs)
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
		sumJurySize += len(sel.IDs)
		sumRegret += trueJER - oracleJER
		calib := sel.PredictedJER - trueJER
		if calib < 0 {
			calib = -calib
		}
		sumCalibration += calib
		res.TotalSpend += sel.Cost
		switch {
		case correct:
			res.Correct++
			res.Decided++
		case ans.Decided:
			res.Decided++
		default:
			res.Undecided++
		}
		if task {
			res.TotalVotes += ans.VotesSpent
			res.TotalDeclines += ans.Declines
			res.Replacements += len(ans.Invited) - len(sel.IDs)
			if ans.EarlyStopped {
				res.EarlyStopped++
			}
			if ans.Decided {
				// Time-to-verdict in the simulation's clock: responses
				// collected before the task closed.
				res.VerdictVotes += ans.VotesSpent
				verdictVotes = append(verdictVotes, ans.VotesSpent)
			}
		}

		rec.JurySize = len(sel.IDs)
		rec.Responders = len(ans.Responders)
		rec.Decided = ans.Decided
		rec.Correct = correct
		rec.PredictedJER = sel.PredictedJER
		rec.TrueJER = trueJER
		rec.OracleJER = oracleJER
		rec.Regret = trueJER - oracleJER
		rec.Calibration = calib
		rec.Spend = sel.Cost
		rec.VotesSpent = ans.VotesSpent
		rec.Declines = ans.Declines
		rec.EarlyStopped = ans.EarlyStopped
		rec.Confidence = ans.Confidence
		records = append(records, rec)

		// 6. Close the loop: the observed votes update the estimator
		// (and, through it, the live pool). A select learns from the
		// resolved truth on every step. A task learns from its verdict,
		// the only label a deployed requester gets, and an undecided
		// task teaches nothing.
		label := truth
		if task {
			if !ans.Decided {
				continue
			}
			label = ans.VerdictYes
		}
		vups, err := est.observeVotes(step, label, ans.Responders, ans.Votes, w)
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
		res.MeanVotesSpent = float64(res.TotalVotes) / float64(scored)
	}
	res.Windows = windowize(sc, records)
	res.attachOracleCalibration(records)
	res.VotesToVerdict = summarizeCounts(verdictVotes)
	res.Latency = summarizeHist(&latHist)
	if trace {
		res.Trace = records
	}
	return res, nil
}

// answer is what asking one question yielded: the jurors whose votes
// were recorded, with their votes, and the outcome. A task's answer is
// the store's final task state; a poll fills only Decided and
// VerdictYes.
type answer struct {
	taskProgress
	Responders []string
	Votes      []bool
}

// poll asks a selected jury once. Each juror answers or not, and the
// majority of the answers decides; no answers or a tie leave the
// question undecided.
func poll(w *world, ids []string, truth bool) (answer, error) {
	ans := answer{Responders: make([]string, 0, len(ids)), Votes: make([]bool, 0, len(ids))}
	yes := 0
	for _, id := range ids {
		answered, vote, err := w.respond(id, truth)
		if err != nil {
			return answer{}, err
		}
		if answered {
			ans.Responders = append(ans.Responders, id)
			ans.Votes = append(ans.Votes, vote)
			if vote {
				yes++
			}
		}
	}
	no := len(ans.Votes) - yes
	ans.Decided, ans.VerdictYes = yes != no, yes > no
	return ans, nil
}

// walkQueue walks a created task's invitation queue in rounds until the
// store closes the task or the queue runs out. A round draws its
// invitees' answers in queue order; an invitee who does not answer
// declines, the deterministic stand-in for a timeout, and the store
// invites the next-best replacement onto the queue's tail. Sequentially
// a round is one invitee, posted with TaskAnswer, so an early stop
// leaves the rest of the queue undrawn and unpaid. In batch mode a round
// is the rest of the queue, posted as one TaskVoteBatch; ballots after
// an early stop come back skipped. Batch mode therefore draws more than
// the sequential walk and is its own trajectory, identical between the
// backends but not step for step with sequential mode. Only ballots the
// store applied count as responses.
func walkQueue(ctx context.Context, w *world, be backend, sel selection, truth, batch bool) (answer, error) {
	var (
		ans     answer
		queue   = sel.IDs
		ballots []tasks.Ballot // the round, reused across rounds
		cast    []bool         // backs the round's Vote pointers
		results []tasks.BallotResult
		err     error
	)
	for start := 0; start < len(queue) && !ans.Closed; {
		end := start + 1
		if batch {
			end = len(queue)
		}
		ballots, cast = slices.Grow(ballots[:0], end-start), slices.Grow(cast[:0], end-start)
		for _, id := range queue[start:end] {
			answered, vote, err := w.respond(id, truth)
			if err != nil {
				return answer{}, err
			}
			ballots = append(ballots, tasks.Ballot{JurorID: id, Decline: !answered})
			cast = append(cast, vote)
		}
		for k := range ballots {
			if !ballots[k].Decline {
				ballots[k].Vote = &cast[k]
			}
		}
		if batch {
			results, ans.taskProgress, err = be.TaskVoteBatch(ctx, sel.TaskID, ballots)
		} else {
			ans.taskProgress, err = be.TaskAnswer(ctx, sel.TaskID, ballots[0])
		}
		if err != nil {
			return answer{}, err
		}
		for k, b := range ballots {
			if batch && results[k].Error != "" {
				return answer{}, fmt.Errorf("ballot %q: %s", b.JurorID, results[k].Error)
			}
			if b.Vote != nil && (!batch || results[k].Applied) {
				ans.Responders = append(ans.Responders, b.JurorID)
				ans.Votes = append(ans.Votes, *b.Vote)
			}
		}
		start = end
		for _, j := range ans.Invited[min(len(queue), len(ans.Invited)):] {
			queue = append(queue, j.ID)
		}
	}
	return ans, nil
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
		// One worker: the replications already run in parallel.
		sel, err = core.SelectOpt(context.TODO(), cands, sc.Budget, 1)
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
