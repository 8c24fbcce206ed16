package simul

import (
	"fmt"

	"juryselect/internal/graph"
	"juryselect/internal/randx"
	"juryselect/internal/twitter"
	"juryselect/jury"
	"juryselect/microblog"
)

// worldJuror is one member of the ground-truth crowd: the latent state the
// paper's online setting assumes and the simulator animates. TrueRate is
// hidden from the selection system — it only ever sees estimates.
type worldJuror struct {
	ID string
	// TrueRate is the juror's actual individual error rate at this step.
	TrueRate float64
	// Cost is the payment requirement (static; the paper derives it from
	// account age, which moves on a much slower clock than reliability).
	Cost float64
	// Degree is the juror's micro-blog popularity (in-degree for the
	// corpus source, a Zipf draw for the normal source): the attribute
	// the degree baseline selects on.
	Degree int
}

// world is the mutable ground truth of one replication: the crowd, its
// drift and churn processes, and the independent random streams every
// simulated mechanism draws from. Streams are split per concern so that,
// e.g., measuring latency or skipping a shed step never perturbs the vote
// sequence — the property behind the in-process/HTTP trajectory parity.
type world struct {
	sc     Scenario
	jurors []worldJuror
	nextID int

	drift *randx.Source // rate evolution
	churn *randx.Source // leave/join process and joiner attributes
	truth *randx.Source // latent answers of arriving questions
	avail *randx.Source // does a selected juror actually vote?
	votes *randx.Source // vote correctness draws
	pick  *randx.Source // random-baseline jury draws

	churnZipf *randx.Zipf // popularity of churn joiners
}

// mixSeed derives the replication seed from the scenario seed, so
// replications are decorrelated yet independent of execution order (the
// parallel runner may finish them in any order). splitmix64 finalizer.
func mixSeed(seed int64, rep int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rep+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// newWorld builds the ground-truth crowd for one replication of a
// normalized, validated scenario.
func newWorld(sc Scenario, rep int) (*world, error) {
	root := randx.New(mixSeed(sc.Seed, rep))
	w := &world{
		sc:    sc,
		drift: root.Split("drift"),
		churn: root.Split("churn"),
		truth: root.Split("truth"),
		avail: root.Split("avail"),
		votes: root.Split("votes"),
		pick:  root.Split("pick"),
	}
	w.churnZipf = randx.NewZipf(w.churn, sc.Population, 1.1)

	init := root.Split("init")
	switch sc.Source {
	case SourceMicroblog:
		if err := w.populateFromCorpus(init); err != nil {
			return nil, err
		}
	default:
		w.populateNormal(init)
	}
	return w, nil
}

// populateNormal draws the crowd from the scenario's truncated-normal
// distributions, with Zipf popularity independent of reliability — the
// regime where the degree baseline has no signal at all.
func (w *world) populateNormal(src *randx.Source) {
	sc := w.sc
	zipf := randx.NewZipf(src, sc.Population, 1.1)
	w.jurors = make([]worldJuror, sc.Population)
	for i := range w.jurors {
		w.jurors[i] = worldJuror{
			ID:       fmt.Sprintf("j%05d", i),
			TrueRate: src.TruncNormal(sc.RateMean, sc.RateStddev, sc.Drift.Min, sc.Drift.Max),
			Cost:     w.drawCost(src),
			Degree:   sc.Population + 1 - zipf.Draw(),
		}
	}
}

// populateFromCorpus runs the §4 estimation pipeline over a synthetic
// retweet corpus and adopts its output as ground truth: authority-ranked
// users get linearly spread true rates inside the drift bounds (so the
// authority ordering is real, as the paper's effectiveness experiments
// assume), costs come from normalized account ages, and Degree is the
// user's actual retweet in-degree — here the degree baseline has genuine
// signal and still loses to JER optimization.
func (w *world) populateFromCorpus(src *randx.Source) error {
	sc := w.sc
	tweets, profiles := microblog.SyntheticCorpus(sc.Population, sc.CorpusTweets, src.Int63())
	res, err := microblog.Candidates(tweets, profiles, microblog.Options{
		Normalization: microblog.Linear,
	})
	if err != nil {
		return fmt.Errorf("simul: corpus pipeline: %w", err)
	}
	g := graph.New()
	for _, tw := range tweets {
		for _, pair := range twitter.RetweetPairs(tw) {
			if err := g.AddEdge(pair.From, pair.To); err != nil {
				return err
			}
		}
	}
	n := len(res.Candidates)
	if n > sc.Population {
		n = sc.Population
	}
	if n < 3 || n < sc.FixedSize {
		return fmt.Errorf("simul: corpus yielded only %d ranked users (need max(3, fixed_size))", n)
	}
	w.jurors = make([]worldJuror, n)
	for i, c := range res.Candidates[:n] {
		deg := 0
		if idx, ok := g.Index(c.ID); ok {
			deg = g.InDegree(idx)
		}
		// The Linear normalization spreads ε over (0,1); map it affinely
		// into the drift bounds so every juror is a valid, live candidate.
		rate := sc.Drift.Min + c.ErrorRate*(sc.Drift.Max-sc.Drift.Min)
		w.jurors[i] = worldJuror{
			ID:       c.ID,
			TrueRate: clampOpenInterval(rate, sc.Drift.Min, sc.Drift.Max),
			Cost:     c.Cost,
			Degree:   deg,
		}
	}
	return nil
}

func (w *world) drawCost(src *randx.Source) float64 {
	c := src.TruncNormal(w.sc.CostMean, w.sc.CostStddev, 0, 1e9)
	if c < 0 {
		c = 0
	}
	return c
}

// clampOpenInterval nudges x strictly inside (lo, hi).
func clampOpenInterval(x, lo, hi float64) float64 {
	eps := (hi - lo) * 1e-9
	if x <= lo {
		return lo + eps
	}
	if x >= hi {
		return hi - eps
	}
	return x
}

// applyDrift advances the ground truth one step and reports whether any
// rate changed (the oracle estimator re-publishes rates only then).
func (w *world) applyDrift(step int) bool {
	sc := w.sc
	switch sc.Drift.Model {
	case DriftWalk:
		for i := range w.jurors {
			delta := w.drift.Normal(0, sc.Drift.Sigma)
			w.jurors[i].TrueRate = clampOpenInterval(w.jurors[i].TrueRate+delta, sc.Drift.Min, sc.Drift.Max)
		}
		return len(w.jurors) > 0
	case DriftShift:
		if step != sc.Drift.ShiftStep {
			return false
		}
		changed := false
		for i := range w.jurors {
			if w.drift.Bernoulli(sc.Drift.ShiftFraction) {
				w.jurors[i].TrueRate = w.drift.TruncNormal(
					sc.Drift.ShiftMean, sc.Drift.ShiftStddev, sc.Drift.Min, sc.Drift.Max)
				changed = true
			}
		}
		return changed
	default:
		return false
	}
}

// churnEvent is one juror replacement: Left departs, Joined arrives.
type churnEvent struct {
	Left   string
	Joined worldJuror
}

// applyChurn replaces an expected ChurnPerStep jurors with fresh joiners
// and returns the events (for the estimator to mirror into the pool).
// Population size is conserved, so selection never runs out of crowd.
func (w *world) applyChurn() []churnEvent {
	lambda := w.sc.ChurnPerStep
	if lambda <= 0 {
		return nil
	}
	count := int(lambda)
	if frac := lambda - float64(count); frac > 0 && w.churn.Bernoulli(frac) {
		count++
	}
	var events []churnEvent
	for k := 0; k < count; k++ {
		victim := w.churn.Intn(len(w.jurors))
		left := w.jurors[victim].ID
		joined := worldJuror{
			ID:       fmt.Sprintf("c%06d", w.nextID),
			TrueRate: w.churn.TruncNormal(w.sc.RateMean, w.sc.RateStddev, w.sc.Drift.Min, w.sc.Drift.Max),
			Cost:     w.drawCost(w.churn),
			Degree:   w.sc.Population + 1 - w.churnZipf.Draw(),
		}
		w.nextID++
		w.jurors[victim] = joined
		events = append(events, churnEvent{Left: left, Joined: joined})
	}
	return events
}

// find returns the world juror with the given ID.
func (w *world) find(id string) (worldJuror, bool) {
	for _, j := range w.jurors {
		if j.ID == id {
			return j, true
		}
	}
	return worldJuror{}, false
}

// respond draws an asked juror's answer: whether they answer at all
// (the avail stream; after Mahmud et al., the selected are not always
// the responding) and, if so, their vote from the TRUE rate (the votes
// stream). The streams are separate, so neither's sequence depends on
// how the jurors' draws interleave.
func (w *world) respond(id string, truth bool) (answered, vote bool, err error) {
	if !w.avail.Bernoulli(w.sc.Availability) {
		return false, false, nil
	}
	j, ok := w.find(id)
	if !ok {
		return false, false, fmt.Errorf("simul: juror %q vanished", id)
	}
	vote = truth
	if w.votes.Bernoulli(j.TrueRate) {
		vote = !truth
	}
	return true, vote, nil
}

// trueRatesOf maps selected juror IDs to their current true error rates.
func (w *world) trueRatesOf(ids []string) ([]float64, error) {
	rates := make([]float64, len(ids))
	for i, id := range ids {
		j, ok := w.find(id)
		if !ok {
			return nil, fmt.Errorf("simul: selected juror %q no longer in world", id)
		}
		rates[i] = j.TrueRate
	}
	return rates, nil
}

// oracleCandidates returns the current crowd as validated jury.Juror
// candidates carrying TRUE rates — the input to the per-step oracle
// selection the regret metric compares against.
func (w *world) oracleCandidates() []jury.Juror {
	out := make([]jury.Juror, len(w.jurors))
	for i, j := range w.jurors {
		out[i] = jury.Juror{ID: j.ID, ErrorRate: j.TrueRate, Cost: j.Cost}
	}
	return out
}

// initialEstimate is the ε the estimation policy publishes for a juror it
// has never observed.
func (sc Scenario) initialEstimate(j worldJuror) float64 {
	if sc.Estimator == EstimatorOracle {
		return j.TrueRate
	}
	return sc.PriorRate
}
