package simul

import (
	"fmt"
	"sort"

	"juryselect/internal/estimate"
	"juryselect/internal/learn"
	"juryselect/internal/pool"
	"juryselect/jury"
)

// estEntry is the estimator's belief about one juror.
type estEntry struct {
	Rate         float64
	Wrong, Total int64
}

// voteRecord is one resolved question's observed voting, kept for the EM
// policy (votes are indexed by juror ID so churn does not invalidate the
// history).
type voteRecord struct {
	truth bool
	votes map[string]bool
}

// estimator maintains the system's belief about juror error rates under
// one of the three policies, and emits the pool updates that publish that
// belief to the backend. It mirrors exactly the state the backend pool
// holds: the posterior policy applies the same estimate.PosteriorRate
// chain the PATCH handler applies server-side, so the mirror and the
// served pool never diverge — the property that lets the simulator score
// baselines and calibration locally in both modes.
type estimator struct {
	sc      Scenario
	est     map[string]*estEntry
	records []voteRecord // EM policy only
}

func newEstimator(sc Scenario) *estimator {
	return &estimator{sc: sc, est: make(map[string]*estEntry)}
}

// initialPool returns the estimated juror set that seeds the backend
// pool, and primes the mirror.
func (e *estimator) initialPool(w *world) []jury.Juror {
	out := make([]jury.Juror, len(w.jurors))
	for i, j := range w.jurors {
		rate := e.sc.initialEstimate(j)
		e.est[j.ID] = &estEntry{Rate: rate}
		out[i] = jury.Juror{ID: j.ID, ErrorRate: rate, Cost: j.Cost}
	}
	return out
}

// rateOf returns the current estimated rate of a juror.
func (e *estimator) rateOf(id string) (float64, error) {
	en, ok := e.est[id]
	if !ok {
		return 0, fmt.Errorf("simul: no estimate for juror %q", id)
	}
	return en.Rate, nil
}

// driftUpdates republishes rates after a ground-truth move. Only the
// oracle policy sees drift directly; the others discover it through
// votes.
func (e *estimator) driftUpdates(w *world) []pool.JurorUpdate {
	if e.sc.Estimator != EstimatorOracle {
		return nil
	}
	ups := make([]pool.JurorUpdate, 0, len(w.jurors))
	for _, j := range w.jurors {
		rate := j.TrueRate
		e.est[j.ID] = &estEntry{Rate: rate}
		ups = append(ups, pool.JurorUpdate{ID: j.ID, ErrorRate: &rate})
	}
	return ups
}

// churnUpdates maps world churn onto pool updates: leavers are removed,
// joiners inserted with the policy's initial estimate.
func (e *estimator) churnUpdates(events []churnEvent) []pool.JurorUpdate {
	var ups []pool.JurorUpdate
	for _, ev := range events {
		delete(e.est, ev.Left)
		ups = append(ups, pool.JurorUpdate{ID: ev.Left, Remove: true})
		rate := e.sc.initialEstimate(ev.Joined)
		cost := ev.Joined.Cost
		e.est[ev.Joined.ID] = &estEntry{Rate: rate}
		ups = append(ups, pool.JurorUpdate{ID: ev.Joined.ID, ErrorRate: &rate, Cost: &cost})
	}
	return ups
}

// observeVotes folds one resolved question into the estimator and
// returns the pool updates publishing the new belief. ids and votes are
// the responders and their votes; truth is the question's resolved
// answer.
func (e *estimator) observeVotes(step int, truth bool, ids []string, votes []bool, w *world) ([]pool.JurorUpdate, error) {
	switch e.sc.Estimator {
	case EstimatorOracle:
		return nil, nil

	case EstimatorPosterior:
		ups := make([]pool.JurorUpdate, 0, len(ids))
		for i, id := range ids {
			en, ok := e.est[id]
			if !ok {
				return nil, fmt.Errorf("simul: vote from unknown juror %q", id)
			}
			var wrong int64
			if votes[i] != truth {
				wrong = 1
			}
			// Same chain the pool store's PATCH path runs: prior weight
			// grows with the accumulated record, so batches compose.
			weight := estimate.DefaultPriorWeight + float64(en.Total)
			rate, err := estimate.PosteriorRate(en.Rate, weight, wrong, 1)
			if err != nil {
				return nil, err
			}
			en.Rate = rate
			en.Wrong += wrong
			en.Total++
			ups = append(ups, pool.JurorUpdate{
				ID:    id,
				Votes: &pool.VoteObservation{Wrong: wrong, Total: 1},
			})
		}
		return ups, nil

	case EstimatorEM:
		rec := voteRecord{truth: truth, votes: make(map[string]bool, len(ids))}
		for i, id := range ids {
			rec.votes[id] = votes[i]
		}
		e.records = append(e.records, rec)
		if (step+1)%e.sc.EMEvery != 0 {
			return nil, nil
		}
		return e.refreshEM(w)

	default:
		return nil, fmt.Errorf("simul: unknown estimator %q", e.sc.Estimator)
	}
}

// refreshEM re-estimates every observed juror's rate with the
// Dawid–Skene EM over the accumulated history and publishes the result
// as fresh priors (an ErrorRate set resets the pool's vote record, which
// matches the semantics: EM re-reads the whole history each refresh).
func (e *estimator) refreshEM(w *world) ([]pool.JurorUpdate, error) {
	if len(e.records) == 0 {
		return nil, nil
	}
	h, err := learn.NewHistory(len(w.jurors))
	if err != nil {
		return nil, err
	}
	answered := make([]int, len(w.jurors))
	for _, rec := range e.records {
		row := make([]learn.Vote, len(w.jurors))
		any := false
		for i, j := range w.jurors {
			v, ok := rec.votes[j.ID]
			switch {
			case !ok:
				row[i] = learn.Abstain
			case v:
				row[i] = learn.VoteYes
				answered[i]++
				any = true
			default:
				row[i] = learn.VoteNo
				answered[i]++
				any = true
			}
		}
		if !any {
			continue // every voter on this task has since churned away
		}
		if err := h.Add(row); err != nil {
			return nil, err
		}
	}
	if h.Tasks() == 0 {
		return nil, nil
	}
	res, err := learn.EM(h, learn.EMOptions{})
	if err != nil {
		return nil, err
	}
	var ups []pool.JurorUpdate
	for i, j := range w.jurors {
		if answered[i] == 0 {
			continue // never observed: keep the current estimate
		}
		rate := res.ErrorRates[i]
		e.est[j.ID] = &estEntry{Rate: rate}
		ups = append(ups, pool.JurorUpdate{ID: j.ID, ErrorRate: &rate})
	}
	return ups, nil
}

// estimatedRatesOf maps juror IDs to the mirror's current estimates, in
// the given order.
func (e *estimator) estimatedRatesOf(ids []string) ([]float64, error) {
	rates := make([]float64, len(ids))
	for i, id := range ids {
		r, err := e.rateOf(id)
		if err != nil {
			return nil, err
		}
		rates[i] = r
	}
	return rates, nil
}

// selectRandom is the uninformed baseline: a uniformly random odd jury of
// FixedSize drawn from the current crowd.
func (e *estimator) selectRandom(w *world, eng *jury.Engine) (selection, error) {
	perm := w.pick.Perm(len(w.jurors))
	ids := make([]string, e.sc.FixedSize)
	cost := 0.0
	for i := 0; i < e.sc.FixedSize; i++ {
		j := w.jurors[perm[i]]
		ids[i] = j.ID
		cost += j.Cost
	}
	return e.baselineOutcome(ids, cost, eng)
}

// selectDegree is the popularity baseline every micro-blog requester can
// run without any estimation machinery: ask the FixedSize most-retweeted
// users (ties by ID). It ignores both ε estimates and jury-size
// optimization.
func (e *estimator) selectDegree(w *world, eng *jury.Engine) (selection, error) {
	idx := make([]int, len(w.jurors))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ja, jb := w.jurors[idx[a]], w.jurors[idx[b]]
		if ja.Degree != jb.Degree {
			return ja.Degree > jb.Degree
		}
		return ja.ID < jb.ID
	})
	ids := make([]string, e.sc.FixedSize)
	cost := 0.0
	for i := 0; i < e.sc.FixedSize; i++ {
		j := w.jurors[idx[i]]
		ids[i] = j.ID
		cost += j.Cost
	}
	return e.baselineOutcome(ids, cost, eng)
}

// baselineOutcome scores a locally selected jury under the current
// estimates so baselines report the same predicted-JER metric the
// backend-served strategies do.
func (e *estimator) baselineOutcome(ids []string, cost float64, eng *jury.Engine) (selection, error) {
	rates, err := e.estimatedRatesOf(ids)
	if err != nil {
		return selection{}, err
	}
	predicted, err := eng.JER(rates)
	if err != nil {
		return selection{}, err
	}
	return selection{IDs: ids, PredictedJER: predicted, Cost: cost}, nil
}
