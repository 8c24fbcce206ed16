package simul

import (
	"context"
	"errors"
	"fmt"

	"juryselect/internal/obs"
	"juryselect/internal/pool"
	"juryselect/internal/tasks"
	"juryselect/jury"
)

// runTaskReplication drives one replication of the task lifecycle: per
// step it evolves the ground truth exactly like the select loop, then
// animates the durable task store's sequential protocol instead of a
// one-shot selection — create a task, walk the invitation queue in
// order, draw availability per invitee (a non-responder declines, which
// is the deterministic stand-in for the juror timeout and pulls in the
// next-best replacement), post votes drawn from the TRUE rates, and
// stop as soon as the task closes (early stop or jury exhaustion). The
// estimator folds observed votes against the task's VERDICT — the only
// label the real system ever gets — rather than the latent truth.
//
// Randomness is drawn lazily in invitation order from the same streams
// the select loop uses, and both backends expose identical invitation
// orders, so the in-process and HTTP trajectories are step-identical
// until the first shed request.
func runTaskReplication(ctx context.Context, sc Scenario, rep int, be backend, eng *jury.Engine, batch, trace bool) (RepResult, error) {
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
		records        []StepRecord
		latHist        obs.Histogram
		sumRegret      float64
		sumCalibration float64
		sumJurySize    int
		scored         int
		verdictVotes   []int
	)
	for step := 0; step < sc.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return RepResult{}, err
		}

		// 1. Ground truth evolves; the estimator publishes what its
		// policy is allowed to see.
		var pups []pool.JurorUpdate
		if w.applyDrift(step) {
			pups = est.driftUpdates(w)
		}
		pups = append(pups, est.churnUpdates(w.applyChurn())...)
		if len(pups) > 0 {
			if err := be.Patch(ctx, poolName, pups); err != nil {
				return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
			}
		}

		// 2. A question arrives with a latent binary truth.
		truth := w.truth.Bernoulli(0.5)

		// 3. Open the task (jury selection inside the store).
		out, err := be.CreateTask(ctx, poolName, sc)
		shed := false
		if errors.Is(err, errStepShed) {
			shed, err = true, nil
		}
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		res.Retries += out.Retried
		if out.LatencyNS > 0 && !shed {
			latHist.Observe(out.LatencyNS)
		}
		if out.PoolVersion > res.FinalPoolVersion {
			res.FinalPoolVersion = out.PoolVersion
		}
		rec := StepRecord{Step: step, Shed: shed, PoolVersion: out.PoolVersion}
		if shed {
			res.Shed++
			records = append(records, rec)
			continue
		}

		// 4. Walk the invitation queue: availability decides vote vs
		// decline; declines pull replacements onto the queue's tail. The
		// walk ends the moment the task closes. Sequential mode draws and
		// posts one invitee at a time, so early stop leaves the rest of
		// the queue untouched — votes never drawn, never paid. Batch mode
		// draws a whole round upfront and posts it in one round trip;
		// votes landing after an early stop come back skipped.
		queue := append([]invitee(nil), out.Invited...)
		var (
			responders []string
			votesCast  []bool
			final      taskProgress
		)
		walk := walkQueueSequential
		if batch {
			walk = walkQueueBatch
		}
		queue, responders, votesCast, final, err = walk(ctx, sc, w, be, out.ID, truth, queue)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		decided := final.Decided
		correct := decided && final.VerdictYes == truth

		// 5. Score against the per-step oracle on the INITIAL selection
		// (replacements are a degraded-crowd response, not a new
		// selection decision).
		initialIDs := make([]string, len(out.Invited))
		for i, j := range out.Invited {
			initialIDs[i] = j.ID
		}
		trueRates, err := w.trueRatesOf(initialIDs)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
		}
		trueJER, err := eng.JER(trueRates)
		if err != nil {
			return RepResult{}, err
		}
		oJER, err := oracleJER(sc, w, eng)
		if err != nil {
			return RepResult{}, fmt.Errorf("simul: step %d: oracle: %w", step, err)
		}

		scored++
		sumJurySize += len(out.Invited)
		sumRegret += trueJER - oJER
		calib := out.PredictedJER - trueJER
		if calib < 0 {
			calib = -calib
		}
		sumCalibration += calib
		res.TotalSpend += out.Cost
		res.TotalVotes += final.VotesSpent
		res.TotalDeclines += final.Declines
		res.Replacements += len(queue) - len(out.Invited)
		if final.EarlyStopped {
			res.EarlyStopped++
		}
		switch {
		case correct:
			res.Correct++
			res.Decided++
		case decided:
			res.Decided++
		default:
			res.Undecided++
		}
		if decided {
			// Time-to-verdict in the simulation's clock: sequential
			// responses collected before the task closed.
			res.VerdictVotes += final.VotesSpent
			verdictVotes = append(verdictVotes, final.VotesSpent)
		}

		rec.JurySize = len(out.Invited)
		rec.Responders = len(responders)
		rec.Decided = decided
		rec.Correct = correct
		rec.PredictedJER = out.PredictedJER
		rec.TrueJER = trueJER
		rec.OracleJER = oJER
		rec.Regret = trueJER - oJER
		rec.Calibration = calib
		rec.Spend = out.Cost
		rec.VotesSpent = final.VotesSpent
		rec.Declines = final.Declines
		rec.EarlyStopped = final.EarlyStopped
		rec.Confidence = final.Confidence
		records = append(records, rec)

		// 6. Close the loop: the verdict — not the latent truth — is the
		// label the estimator learns from, exactly as a deployed
		// requester would. Undecided tasks teach nothing.
		if decided {
			vups, err := est.observeVotes(step, final.VerdictYes, responders, votesCast, w)
			if err != nil {
				return RepResult{}, fmt.Errorf("simul: step %d: %w", step, err)
			}
			if len(vups) > 0 {
				if err := be.Patch(ctx, poolName, vups); err != nil {
					return RepResult{}, fmt.Errorf("simul: step %d: folding votes: %w", step, err)
				}
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

// walkQueueSequential animates one task's invitation queue one invitee
// per round trip, drawing availability and votes lazily — the draw for
// invitee i happens only if the task is still open when their turn
// comes. Returns the grown queue, the jurors whose votes were recorded
// (with the votes), and the final task progress.
func walkQueueSequential(ctx context.Context, sc Scenario, w *world, be backend, id string, truth bool, queue []invitee) ([]invitee, []string, []bool, taskProgress, error) {
	var (
		responders []string
		votesCast  []bool
		final      taskProgress
	)
	for i := 0; i < len(queue); i++ {
		j := queue[i]
		var prog taskProgress
		var err error
		if w.avail.Bernoulli(sc.Availability) {
			wj, ok := w.find(j.ID)
			if !ok {
				return queue, nil, nil, final, fmt.Errorf("invitee %q vanished", j.ID)
			}
			v := truth
			if w.votes.Bernoulli(wj.TrueRate) {
				v = !truth
			}
			prog, err = be.TaskVote(ctx, id, j.ID, v)
			if err != nil {
				return queue, nil, nil, final, fmt.Errorf("vote: %w", err)
			}
			responders = append(responders, j.ID)
			votesCast = append(votesCast, v)
		} else {
			prog, err = be.TaskDecline(ctx, id, j.ID)
			if err != nil {
				return queue, nil, nil, final, fmt.Errorf("decline: %w", err)
			}
		}
		if len(prog.Invited) > len(queue) {
			queue = append(queue, prog.Invited[len(queue):]...)
		}
		final = prog
		if prog.Closed {
			break
		}
	}
	return queue, responders, votesCast, final, nil
}

// walkQueueBatch animates the queue in rounds: every not-yet-visited
// invitee's availability and vote are drawn upfront (in queue order,
// from the same streams sequential mode uses) and posted as one
// TaskVoteBatch; replacements invited by the round's declines form the
// next round. Drawing a round upfront consumes more stream draws than
// the lazy sequential walk, so batch mode is its own deterministic
// trajectory — identical between the in-process and HTTP backends, but
// not comparable step-for-step with sequential mode. Only votes the
// store actually recorded count as responses; votes skipped by an
// early stop mid-batch were never cast.
func walkQueueBatch(ctx context.Context, sc Scenario, w *world, be backend, id string, truth bool, queue []invitee) ([]invitee, []string, []bool, taskProgress, error) {
	var (
		responders []string
		votesCast  []bool
		final      taskProgress
	)
	for start := 0; start < len(queue); {
		round := queue[start:]
		ballots := make([]tasks.Ballot, len(round))
		votes := make([]bool, len(round)) // backs the ballots' Vote pointers
		for i, j := range round {
			if w.avail.Bernoulli(sc.Availability) {
				wj, ok := w.find(j.ID)
				if !ok {
					return queue, nil, nil, final, fmt.Errorf("invitee %q vanished", j.ID)
				}
				votes[i] = truth
				if w.votes.Bernoulli(wj.TrueRate) {
					votes[i] = !truth
				}
				ballots[i] = tasks.Ballot{JurorID: j.ID, Vote: &votes[i]}
			} else {
				ballots[i] = tasks.Ballot{JurorID: j.ID, Decline: true}
			}
		}
		results, prog, err := be.TaskVoteBatch(ctx, id, ballots)
		if err != nil {
			return queue, nil, nil, final, fmt.Errorf("batch vote: %w", err)
		}
		for k, r := range results {
			if r.Error != "" {
				return queue, nil, nil, final, fmt.Errorf("batch vote item %q: %s", ballots[k].JurorID, r.Error)
			}
			if r.Applied && !ballots[k].Decline {
				responders = append(responders, ballots[k].JurorID)
				votesCast = append(votesCast, votes[k])
			}
		}
		start = len(queue)
		if len(prog.Invited) > len(queue) {
			queue = append(queue, prog.Invited[len(queue):]...)
		}
		final = prog
		if prog.Closed {
			break
		}
	}
	return queue, responders, votesCast, final, nil
}
