package insight

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"juryselect/internal/obs"
	"juryselect/internal/tasks"
)

// refEngine is the engine as it was before jurors were interned: juror
// stats and co-vote pairs keyed by ID strings, one heap object per pair,
// and the whole render done with string sorts. It is kept as the
// reference the engine must match byte for byte. Not safe for
// concurrent use.
type refEngine struct {
	jurors  map[string]*jurorStats
	open    map[string]*refOpenTask
	pairs   map[refPairKey]*pairStats
	pairCap int

	calib      Reliability
	byStrategy map[string]*Reliability

	tally        tasks.Tally
	droppedPairs int64
}

type refOpenTask struct {
	strategy     string
	predictedJER float64
	votes        []refVote
}

type refVote struct {
	juror string
	yes   bool
}

// refPairKey identifies an unordered juror pair canonically (a < b).
type refPairKey struct {
	a, b string
}

func newRefEngine(pairCap int) *refEngine {
	if pairCap <= 0 {
		pairCap = DefaultPairCap
	}
	return &refEngine{
		jurors:     make(map[string]*jurorStats),
		open:       make(map[string]*refOpenTask),
		pairs:      make(map[refPairKey]*pairStats),
		pairCap:    pairCap,
		byStrategy: make(map[string]*Reliability),
	}
}

func (e *refEngine) juror(id string, eps float64) *jurorStats {
	j := e.jurors[id]
	if j == nil {
		j = &jurorStats{}
		e.jurors[id] = j
	}
	if eps > 0 {
		j.epsSum += fp(eps)
		j.epsN++
	}
	return j
}

func (e *refEngine) TaskEvent(ev tasks.Event) {
	ot := e.open[ev.Task]
	e.tally.Observe(ev, ot != nil)
	switch ev.Type {
	case tasks.EvTaskCreated:
		e.open[ev.Task] = &refOpenTask{strategy: ev.Strategy, predictedJER: ev.PredictedJER}
		for _, j := range ev.Jury {
			e.juror(j.ID, j.ErrorRate).invites++
		}
	case tasks.EvJurorInvited:
		e.juror(ev.Juror, ev.ErrorRate).invites++
	case tasks.EvVoteRecorded:
		j := e.juror(ev.Juror, ev.ErrorRate)
		j.votes++
		if ev.Vote {
			j.yesVotes++
		}
		j.latency.Observe(ev.LatencyNS)
		if ot != nil {
			ot.votes = append(ot.votes, refVote{juror: ev.Juror, yes: ev.Vote})
		}
	case tasks.EvJurorReleased:
		j := e.juror(ev.Juror, ev.ErrorRate)
		if ev.Timeout {
			j.timeouts++
		} else {
			j.declines++
		}
	case tasks.EvTaskClosed:
		if ot == nil {
			return
		}
		delete(e.open, ev.Task)
		if ev.Decided {
			realized := 1 - ev.Confidence
			e.calib.Add(ot.predictedJER, realized)
			sr := e.byStrategy[ot.strategy]
			if sr == nil {
				sr = &Reliability{}
				e.byStrategy[ot.strategy] = sr
			}
			sr.Add(ot.predictedJER, realized)
			for _, v := range ot.votes {
				j := e.jurors[v.juror]
				j.judged++
				if v.yes != ev.Answer {
					j.wrong++
				}
			}
		}
		for i := 0; i < len(ot.votes); i++ {
			for k := i + 1; k < len(ot.votes); k++ {
				a, b := ot.votes[i], ot.votes[k]
				key := refPairKey{a: a.juror, b: b.juror}
				if key.b < key.a {
					key.a, key.b = key.b, key.a
				}
				p := e.pairs[key]
				if p == nil {
					if len(e.pairs) >= e.pairCap {
						e.droppedPairs++
						continue
					}
					p = &pairStats{}
					e.pairs[key] = p
				}
				p.n++
				if a.yes == b.yes {
					p.agree++
				}
			}
		}
	}
}

func (e *refEngine) Snapshot() *Snapshot {
	s := &Snapshot{
		Totals:            e.tally.Totals,
		UnknownTaskEvents: e.tally.Unknown,
		Calibration: CalibrationReport{
			Overall:    e.calib.Report(),
			ByStrategy: make(map[string]ReliabilityReport, len(e.byStrategy)),
		},
	}
	for strat, r := range e.byStrategy {
		s.Calibration.ByStrategy[strat] = r.Report()
	}

	ids := make([]string, 0, len(e.jurors))
	for id := range e.jurors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.Jurors = make([]JurorProfile, 0, len(ids))
	for _, id := range ids {
		j := e.jurors[id]
		p := JurorProfile{ID: id, Invites: j.invites, Votes: j.votes, YesVotes: j.yesVotes,
			Declines: j.declines, Timeouts: j.timeouts, Judged: j.judged, Wrong: j.wrong}
		if j.epsN > 0 {
			p.PoolEps = float64(j.epsSum) / fpScale / float64(j.epsN)
		}
		p.RealizedRate = realizedRate(p.PoolEps, j.wrong, j.judged)
		if asked := j.votes + j.declines + j.timeouts; asked > 0 {
			p.ResponseRate = float64(j.votes) / float64(asked)
		}
		hs := j.latency.Snapshot()
		p.Latency = hs.Summary()
		s.Jurors = append(s.Jurors, p)
	}

	rep := AgreementReport{TrackedPairs: len(e.pairs), DroppedPairs: e.droppedPairs,
		Pairs: make([]AgreementPair, 0, len(e.pairs))}
	for key, p := range e.pairs {
		ap := AgreementPair{A: key.a, B: key.b, CoVotes: p.n, Agreements: p.agree,
			Rate: float64(p.agree) / float64(p.n)}
		ja, jb := e.jurors[key.a], e.jurors[key.b]
		if ja.votes > 0 && jb.votes > 0 && p.n > 0 {
			qa := float64(ja.yesVotes) / float64(ja.votes)
			qb := float64(jb.yesVotes) / float64(jb.votes)
			ap.Expected = qa*qb + (1-qa)*(1-qb)
			if variance := float64(p.n) * ap.Expected * (1 - ap.Expected); variance > 0 {
				ap.Z = (float64(p.agree) - float64(p.n)*ap.Expected) / math.Sqrt(variance)
			}
		}
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
	s.Agreement = rep
	s.Fingerprint = obs.Fingerprint(s)
	return s
}

// requireSameSnapshot feeds evs to the engine and to the reference,
// both bounded at pairCap, and requires byte-identical snapshot JSON.
func requireSameSnapshot(t *testing.T, pairCap int, evs []tasks.Event) {
	t.Helper()
	e, ref := New(pairCap), newRefEngine(pairCap)
	for _, ev := range evs {
		e.TaskEvent(ev)
		ref.TaskEvent(ev)
	}
	requireSnapshotsEqual(t, e, ref)
}

func requireSnapshotsEqual(t *testing.T, e *Engine, ref *refEngine) {
	t.Helper()
	got, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the string-keyed reference:\n got %s\nwant %s", got, want)
	}
	if st := e.Stats(); st.JurorsTracked != len(ref.jurors) || st.PairsTracked != len(ref.pairs) {
		t.Fatalf("stats track %d jurors and %d pairs, reference %d and %d",
			st.JurorsTracked, st.PairsTracked, len(ref.jurors), len(ref.pairs))
	}
}

// fuzzJurors are the IDs decoded streams draw from, listed so that first
// sight differs from ID order: "j9" is interned before "j10", "j100"
// before "j1".
var fuzzJurors = []string{"j9", "j10", "j100", "j1", "j2", "j11", "j0", "j3", "j20"}

// eventStream decodes data into a pair cap of 1 to 8 and an event
// stream. Each two-byte step is one event on one of four tasks, so
// tasks interleave, and an event on a task not created, or closed
// already, is an unknown-task event.
func eventStream(data []byte) (int, []tasks.Event) {
	if len(data) == 0 {
		return 1, nil
	}
	pairCap := 1 + int(data[0]%8)
	var evs []tasks.Event
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		ev := tasks.Event{
			Task:      "t" + strconv.Itoa(int(op>>4)%4),
			Juror:     fuzzJurors[int(arg)%len(fuzzJurors)],
			ErrorRate: float64(arg%5) / 10, // 0 pins no rate
		}
		switch op % 6 {
		case 0:
			ev.Type = tasks.EvTaskCreated
			ev.Strategy = []string{"altr", "pay"}[op>>7]
			ev.PredictedJER = float64(arg) / 512
			ev.Jury = make([]tasks.EventJuror, 1+int(arg>>5))
			for k := range ev.Jury {
				ev.Jury[k] = tasks.EventJuror{
					ID:        fuzzJurors[(int(arg)+k)%len(fuzzJurors)],
					ErrorRate: float64((int(arg)+k)%4) / 10,
				}
			}
		case 1, 2:
			ev.Type = tasks.EvVoteRecorded
			ev.Vote = arg&0x40 != 0
			ev.LatencyNS = int64(arg) << 12
		case 3:
			ev.Type = tasks.EvJurorInvited
		case 4:
			ev.Type = tasks.EvJurorReleased
			ev.Timeout = arg&0x80 != 0
		case 5:
			ev.Type = tasks.EvTaskClosed
			ev.Decided = arg&0x80 == 0
			ev.Answer = arg&0x40 != 0
			ev.Confidence = 0.5 + float64(arg%64)/128
		}
		evs = append(evs, ev)
	}
	return pairCap, evs
}

// task returns the events of one task on jury, the first len(votes)
// members voting as votes says, then its close.
func task(id string, decided bool, jury []string, votes ...bool) []tasks.Event {
	members := make([]tasks.EventJuror, len(jury))
	for k, j := range jury {
		members[k] = tasks.EventJuror{ID: j, ErrorRate: 0.2}
	}
	evs := []tasks.Event{evCreate(id, members...)}
	for k, yes := range votes {
		evs = append(evs, evVote(id, jury[k], yes))
	}
	closed := evClose(id, true, 0.9)
	closed.Decided = decided
	return append(evs, closed)
}

// TestPairTrackerMatchesReference feeds the engine and the string-keyed
// reference the same streams and requires byte-identical snapshots.
func TestPairTrackerMatchesReference(t *testing.T) {
	five := []string{"j10", "j9", "j100", "j1", "j2"}
	var capped []tasks.Event
	for i := 0; i < 6; i++ {
		jury := []string{fuzzJurors[i], fuzzJurors[i+1], fuzzJurors[i+2], fuzzJurors[i+3]}
		capped = append(capped, task("t"+strconv.Itoa(i), i%3 != 2, jury, true, i%2 == 0, false, true)...)
	}
	for _, tc := range []struct {
		name string
		caps []int
		evs  []tasks.Event
	}{
		{"rows interned out of ID order", []int{0}, append(
			task("t1", true, five, true, false, true, true, false),
			task("t2", true, []string{"j2", "j9"}, false, false)...)},
		{"caps 1 to 8 drop pairs", []int{1, 2, 3, 4, 5, 6, 7, 8}, capped},
		{"expired tasks record pairs", []int{0}, task("t1", false, five, true, true, false)},
		{"unknown-task events", []int{2}, append(task("t1", true, five[:3], true, true, false),
			tasks.Event{Type: tasks.EvVoteRecorded, Task: "t1", Juror: "j10", Vote: true},
			tasks.Event{Type: tasks.EvVoteRecorded, Task: "ghost", Juror: "j7", ErrorRate: 0.3},
			tasks.Event{Type: tasks.EvJurorReleased, Task: "ghost", Juror: "j8", Timeout: true},
			tasks.Event{Type: tasks.EvJurorInvited, Task: "ghost", Juror: "j6"},
			tasks.Event{Type: tasks.EvTaskClosed, Task: "ghost", Decided: true, Confidence: 0.8})},
	} {
		for _, c := range tc.caps {
			t.Run(tc.name+"/cap"+strconv.Itoa(c), func(t *testing.T) {
				requireSameSnapshot(t, c, tc.evs)
			})
		}
	}

	// A store's stream of fixed-jury tasks: unpadded IDs on ε drawn out
	// of ID order, so the store's ε-sorted juries intern rows out of ID
	// order, with declines and replacements.
	t.Run("store stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		jurors := crowd(30)
		for i := range jurors {
			jurors[i].ID = "j" + strconv.Itoa(i)
			jurors[i].ErrorRate = 0.05 + 0.4*rng.Float64()
		}
		e, ref := New(12), newRefEngine(12)
		s, err := tasks.Open(tasks.Config{Events: tasks.Sinks(e, ref)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.PutPool("crowd", jurors); err != nil {
			t.Fatal(err)
		}
		driveTasks(t, s, rng, 12, 1)
		if e.Stats().PairsDropped == 0 {
			t.Fatal("no pair dropped: the stream does not reach the cap")
		}
		requireSnapshotsEqual(t, e, ref)
	})
}

// FuzzInsightPairs decodes arbitrary bytes into a pair cap and an event
// stream (eventStream) and requires the engine's snapshot to match the
// string-keyed reference's byte for byte.
func FuzzInsightPairs(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 9, 64, 256, 1024} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairCap, evs := eventStream(data)
		requireSameSnapshot(t, pairCap, evs)
	})
}
